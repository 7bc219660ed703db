// Reference structural validator for differential tests: a direct
// bottom-up solve of the twig embedding problem over the full by-value
// candidate lists, without the production validator's top-down candidate
// gathering, scratch reuse or plan-level skip (core/validate.h).
#ifndef XJOIN_TESTS_REFERENCE_VALIDATE_H_
#define XJOIN_TESTS_REFERENCE_VALIDATE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "xml/node_index.h"
#include "xml/twig.h"

namespace xjoin::testing {

/// `values[q]` is the value bound to twig node q, or nullopt when the
/// node is unbound. True when some embedding of the twig contracted onto
/// its bound nodes (nearest bound ancestor, level-distance constraints)
/// matches every bound value; exact for full assignments.
inline bool ReferenceExistsEmbedding(
    const Twig& twig, const NodeIndex& index,
    const std::vector<std::optional<int64_t>>& values) {
  struct SkeletonEdge {
    TwigNodeId child;
    bool exact_parent;
    bool exact_level;
    int32_t distance;
  };
  const size_t n = twig.num_nodes();
  const XmlDocument& doc = index.doc();

  std::vector<std::vector<SkeletonEdge>> children(n);
  std::vector<TwigNodeId> bound_nodes;
  for (size_t i = 0; i < n; ++i) {
    if (!values[i].has_value()) continue;
    TwigNodeId q = static_cast<TwigNodeId>(i);
    bound_nodes.push_back(q);
    int32_t distance = 0;
    bool all_pc = true;
    TwigNodeId cur = q;
    while (twig.node(cur).parent != kNullTwigNode) {
      if (twig.node(cur).axis == TwigAxis::kDescendant) all_pc = false;
      ++distance;
      cur = twig.node(cur).parent;
      if (values[static_cast<size_t>(cur)].has_value()) {
        children[static_cast<size_t>(cur)].push_back(
            SkeletonEdge{q, distance == 1 && all_pc, all_pc, distance});
        break;
      }
    }
  }

  // Bound nodes are in preorder; reverse order handles children first.
  std::vector<std::vector<NodeId>> feasible(n);
  for (auto it = bound_nodes.rbegin(); it != bound_nodes.rend(); ++it) {
    size_t qi = static_cast<size_t>(*it);
    int32_t tag = doc.LookupTag(twig.node(*it).tag);
    if (tag < 0) return false;
    std::vector<NodeId> kept;
    for (NodeId x : index.NodesByTagValue(tag, *values[qi])) {
      bool ok = true;
      for (const SkeletonEdge& e : children[qi]) {
        const std::vector<NodeId>& fc = feasible[static_cast<size_t>(e.child)];
        auto lo = std::upper_bound(fc.begin(), fc.end(), x);
        NodeId end = doc.node(x).subtree_end;
        bool found = false;
        for (auto y = lo; y != fc.end() && *y <= end && !found; ++y) {
          int32_t diff = doc.node(*y).level - doc.node(x).level;
          if (e.exact_parent) {
            found = doc.node(*y).parent == x;
          } else if (e.exact_level) {
            found = diff == e.distance;
          } else {
            found = diff >= e.distance;
          }
        }
        if (!found) {
          ok = false;
          break;
        }
      }
      if (ok) kept.push_back(x);
    }
    if (kept.empty()) return false;
    feasible[qi] = std::move(kept);
  }
  return true;
}

}  // namespace xjoin::testing

#endif  // XJOIN_TESTS_REFERENCE_VALIDATE_H_
