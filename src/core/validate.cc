#include "core/validate.h"

#include <algorithm>
#include <string>

namespace xjoin {

namespace {

bool ByNode(const ValueNode& a, const ValueNode& b) { return a.node < b.node; }

}  // namespace

TwigStructureValidator::TwigStructureValidator(const Twig* twig,
                                               const NodeIndex* index)
    : twig_(twig), index_(index) {
  const size_t n = twig->num_nodes();
  tag_codes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tag_codes_.push_back(
        index->doc().LookupTag(twig->node(static_cast<TwigNodeId>(i)).tag));
  }
  full_skeleton_.resize(n);
  BuildSkeleton(nullptr, full_skeleton_.data());
}

void TwigStructureValidator::BuildSkeleton(const uint8_t* bound,
                                           SkeletonEdge* out) const {
  // Contract the twig onto its bound nodes: for each bound node, find the
  // nearest bound proper ancestor and the properties of the contracted
  // edge (distance, all-P-C?, direct edge?).
  for (size_t i = 0; i < twig_->num_nodes(); ++i) {
    SkeletonEdge& e = out[i];
    e = SkeletonEdge{kNullTwigNode, false, false, 0};
    if (bound != nullptr && bound[i] == 0) continue;
    bool all_pc = true;
    for (TwigNodeId cur = static_cast<TwigNodeId>(i);
         twig_->node(cur).parent != kNullTwigNode;) {
      if (twig_->node(cur).axis == TwigAxis::kDescendant) all_pc = false;
      ++e.distance;
      cur = twig_->node(cur).parent;
      if (bound == nullptr || bound[static_cast<size_t>(cur)] != 0) {
        e.parent = cur;
        e.exact_parent = e.distance == 1 && all_pc;
        e.exact_level = all_pc;
        break;
      }
    }
  }
}

bool TwigStructureValidator::ExistsEmbedding(const int64_t* values,
                                             const uint8_t* bound,
                                             Scratch* scratch,
                                             Metrics* metrics) const {
  const SkeletonEdge* skeleton = full_skeleton_.data();
  if (bound != nullptr) {
    if (scratch->skeleton.size() < twig_->num_nodes()) {
      scratch->skeleton.resize(twig_->num_nodes());
    }
    BuildSkeleton(bound, scratch->skeleton.data());
    skeleton = scratch->skeleton.data();
  }
  // Never shrink: the per-node buffers keep their capacity across calls.
  if (scratch->sets.size() < twig_->num_nodes()) {
    scratch->sets.resize(twig_->num_nodes());
  }
  int64_t candidates = 0;
  bool ok = Check(values, bound, skeleton, scratch, &candidates);
  if (metrics != nullptr) {
    static const std::string kCandidates = "validate.candidates";
    metrics->Add(kCandidates, candidates);
  }
  return ok;
}

bool TwigStructureValidator::Check(const int64_t* values, const uint8_t* bound,
                                   const SkeletonEdge* skeleton,
                                   Scratch* scratch,
                                   int64_t* candidates) const {
  const size_t n = twig_->num_nodes();
  const XmlDocument& doc = index_->doc();
  auto is_bound = [bound](size_t q) { return bound == nullptr || bound[q]; };

  // Top-down, in preorder (every skeleton parent precedes its children):
  // each bound node's candidates are its (tag, value) nodes that lie
  // under some candidate of its skeleton parent. Sets stay sorted by
  // NodeId; recursive tags can nest parent candidates, so nested regions
  // are merged.
  for (size_t q = 0; q < n; ++q) {
    if (!is_bound(q)) continue;
    if (tag_codes_[q] < 0) return false;  // tag absent from document
    const std::vector<ValueNode>& list =
        index_->ValueSortedNodes(tag_codes_[q]);
    const int64_t value = values[q];
    // Within one value the list is sorted by NodeId.
    auto lo = std::lower_bound(
        list.begin(), list.end(), value,
        [](const ValueNode& a, int64_t v) { return a.value < v; });
    auto hi = std::upper_bound(
        lo, list.end(), value,
        [](int64_t v, const ValueNode& a) { return v < a.value; });
    if (lo == hi) return false;
    const ValueNode* first = &*lo;
    const ValueNode* last = first + (hi - lo);

    Scratch::CandidateSet& set = scratch->sets[q];
    const SkeletonEdge& edge = skeleton[q];
    if (edge.parent == kNullTwigNode) {
      set.begin = first;
      set.end = last;
      set.owned = false;
    } else {
      const Scratch::CandidateSet& parents =
          scratch->sets[static_cast<size_t>(edge.parent)];
      std::vector<ValueNode>& buf = set.buf;
      buf.clear();
      // Descendants of x occupy the NodeId range (x, subtree_end]; a
      // parent candidate inside an earlier one's region adds nothing.
      const ValueNode* it = first;
      NodeId covered_end = -1;
      for (const ValueNode* x = parents.begin; x != parents.end; ++x) {
        if (x->node <= covered_end) continue;
        covered_end = doc.node(x->node).subtree_end;
        it = std::upper_bound(it, last, ValueNode{value, x->node}, ByNode);
        for (; it != last && it->node <= covered_end; ++it) {
          buf.push_back(*it);
        }
        if (it == last) break;
      }
      if (buf.empty()) return false;
      set.begin = buf.data();
      set.end = buf.data() + buf.size();
      set.owned = true;
    }
    *candidates += set.end - set.begin;
  }

  // Bottom-up, in reverse preorder (children before parents): keep the
  // parent candidates that have a feasible node of this child below them
  // at the required distance. A child's set is final once reached, since
  // all of its skeleton children come later in preorder.
  for (size_t q = n; q-- > 0;) {
    if (!is_bound(q)) continue;
    const SkeletonEdge& edge = skeleton[q];
    if (edge.parent == kNullTwigNode) continue;
    const Scratch::CandidateSet& child = scratch->sets[q];
    Scratch::CandidateSet& parents =
        scratch->sets[static_cast<size_t>(edge.parent)];
    auto supported = [&](const ValueNode& x) {
      const XmlNode& xn = doc.node(x.node);
      const ValueNode* y =
          std::upper_bound(child.begin, child.end, x, ByNode);
      for (; y != child.end && y->node <= xn.subtree_end; ++y) {
        const XmlNode& yn = doc.node(y->node);
        if (edge.exact_parent) {
          if (yn.parent == x.node) return true;
        } else if (edge.exact_level) {
          if (yn.level == xn.level + edge.distance) return true;
        } else if (yn.level >= xn.level + edge.distance) {
          return true;
        }
      }
      return false;
    };
    std::vector<ValueNode>& buf = parents.buf;
    if (parents.owned) {
      auto unsupported = [&](const ValueNode& x) { return !supported(x); };
      buf.erase(std::remove_if(buf.begin(), buf.end(), unsupported),
                buf.end());
    } else {
      // A skeleton root still points into the index: copy the survivors.
      buf.clear();
      for (const ValueNode* x = parents.begin; x != parents.end; ++x) {
        if (supported(*x)) buf.push_back(*x);
      }
      parents.owned = true;
    }
    if (buf.empty()) return false;
    parents.begin = buf.data();
    parents.end = buf.data() + buf.size();
  }
  return true;
}

}  // namespace xjoin
