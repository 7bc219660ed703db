// Structural validation of value-level join results (the final "Filter R
// by validating structure of Sx" of Algorithm 1, and the in-join partial
// validation the paper lists as on-going work).
//
// A value assignment to twig attributes is *structurally valid* when at
// least one embedding of the twig binds every query node q to a document
// node with tag(q) and the assigned value. The check is a tree-shaped
// constraint-satisfaction problem over candidate node sets — exact for
// full assignments; for partial assignments the twig is contracted onto
// the bound nodes (nearest-bound-ancestor skeleton with level-distance
// constraints), a sound relaxation used for pruning.
//
// Candidates are gathered top-down from the bound parent: a skeleton
// root reads its (tag, value) nodes in place from the index, every other
// bound node keeps only the nodes that lie under one of its parent's
// candidates. A bottom-up pass over those sets then decides feasibility.
// The work per call is proportional to the candidates near the bound
// parents, not to how often a value repeats across the document.
#ifndef XJOIN_CORE_VALIDATE_H_
#define XJOIN_CORE_VALIDATE_H_

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin {

/// Validator for one (twig, document) pair. Immutable after
/// construction, so one instance is shared by concurrent callers; all
/// per-call state lives in a caller-owned Scratch.
class TwigStructureValidator {
 private:
  struct SkeletonEdge {
    TwigNodeId parent;  // nearest bound proper ancestor, or kNullTwigNode
    bool exact_parent;  // direct P-C edge: require parent(y) == x
    bool exact_level;   // all-P-C contracted path: level diff == distance
    int32_t distance;   // number of twig edges contracted
  };

 public:
  /// Working memory of ExistsEmbedding. Give every concurrent caller its
  /// own (one per ParallelForWorker slot); one scratch serves any number
  /// of validators. Grows to the largest twig seen, then stops
  /// allocating.
  class Scratch {
   private:
    friend class TwigStructureValidator;
    // Candidate nodes of one bound twig node, sorted by NodeId. Either a
    // range read in place from NodeIndex::ValueSortedNodes or `buf`.
    struct CandidateSet {
      const ValueNode* begin = nullptr;
      const ValueNode* end = nullptr;
      bool owned = false;  // [begin, end) lies in buf
      std::vector<ValueNode> buf;
    };
    std::vector<CandidateSet> sets;      // by twig node
    std::vector<SkeletonEdge> skeleton;  // of the last partial assignment
  };

  TwigStructureValidator(const Twig* twig, const NodeIndex* index);

  /// `values[q]` is the value bound to twig node q, for every q with
  /// `bound[q] != 0`; a null `bound` binds every node (the full
  /// assignments of the final filter). Returns true when some embedding
  /// is consistent with every bound value (exact if all nodes are
  /// bound). Adds the number of top-down candidates to
  /// "validate.candidates" on `metrics` (nullable).
  bool ExistsEmbedding(const int64_t* values, const uint8_t* bound,
                       Scratch* scratch, Metrics* metrics = nullptr) const;

 private:
  // Fills `out` (one entry per twig node) with the skeleton of the
  // assignment that binds exactly the nodes with bound[q] != 0.
  void BuildSkeleton(const uint8_t* bound, SkeletonEdge* out) const;

  bool Check(const int64_t* values, const uint8_t* bound,
             const SkeletonEdge* skeleton, Scratch* scratch,
             int64_t* candidates) const;

  const Twig* twig_;
  const NodeIndex* index_;
  std::vector<int32_t> tag_codes_;  // per twig node; -1 if absent in doc
  std::vector<SkeletonEdge> full_skeleton_;  // every node bound
};

}  // namespace xjoin

#endif  // XJOIN_CORE_VALIDATE_H_
