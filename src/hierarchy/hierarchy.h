// Attribute value hierarchies (paper §II: "Attribute tree hierarchies or
// numerical ranges may be used as well, but are not considered in this
// paper" — implemented here as an extension).
//
// An AttributeHierarchy organizes one attribute's active domain into a
// forest: the dictionary values are the leaves and user-defined internal
// nodes roll them up ("Houston" -> "Texas" -> "South"). A hierarchical
// pattern may then constrain an attribute to any node, covering every
// record whose leaf value lies in that node's subtree; the ALL wildcard
// sits above all roots. This generalizes the flat case exactly: with no
// internal nodes every leaf is a root and the node lattice degenerates to
// {value, ALL}.
//
// Ancestor tests are O(1) via Euler-tour intervals; the child-of-a-node
// that contains a given leaf is O(1) via precomputed root-to-leaf chains.
// Those two lookups are what let the hierarchical descents cost patterns
// from node postings (node_index.h) and group children on scratch arrays
// (hlattice.h) with the same per-pop work as the flat descents.

#ifndef SCWSC_HIERARCHY_HIERARCHY_H_
#define SCWSC_HIERARCHY_HIERARCHY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/table/table.h"

namespace scwsc {
namespace hierarchy {

/// Node within one attribute's hierarchy. Ids [0, num_leaves) are exactly
/// the attribute's dictionary ValueIds; internal nodes follow.
using NodeId = std::uint32_t;

inline constexpr NodeId kNoNode = 0xFFFFFFFFu;

class AttributeHierarchy {
 public:
  /// The trivial hierarchy: every leaf is a root (flat semantics).
  static AttributeHierarchy Flat(std::size_t num_leaves);

  /// Builds from (child, parent) edges over names. A child name may be a
  /// dictionary value (leaf) or a previously/later mentioned internal
  /// name; parent names must be internal (they must not collide with
  /// dictionary values). Values absent from the edge list stay roots.
  /// Fails on cycles, multiple parents, or a parent name that equals a
  /// leaf value.
  static Result<AttributeHierarchy> Build(
      const Dictionary& dictionary,
      const std::vector<std::pair<std::string, std::string>>& child_to_parent);

  std::size_t num_leaves() const { return num_leaves_; }
  std::size_t num_nodes() const { return parent_.size(); }
  bool is_leaf(NodeId node) const { return node < num_leaves_; }

  /// Parent of `node`, or kNoNode for roots.
  NodeId parent(NodeId node) const { return parent_[node]; }

  const std::vector<NodeId>& children(NodeId node) const {
    return children_[node];
  }
  const std::vector<NodeId>& roots() const { return roots_; }

  /// Depth of `node` (roots are depth 0).
  std::size_t depth(NodeId node) const { return depth_[node]; }

  /// True when `ancestor` is `node` or lies on its root path. O(1).
  bool IsAncestorOrSelf(NodeId ancestor, NodeId node) const {
    return euler_in_[ancestor] <= euler_in_[node] &&
           euler_out_[node] <= euler_out_[ancestor];
  }

  /// The ancestor of `leaf` at depth `d`; requires d <= depth(leaf).
  NodeId AncestorAtDepth(NodeId leaf, std::size_t d) const {
    return chains_[leaf][d];
  }

  /// Number of leaves in `node`'s subtree.
  std::size_t LeafCount(NodeId node) const { return leaf_count_[node]; }

  /// Name of a node: the dictionary value for leaves, the internal name
  /// otherwise.
  const std::string& NodeName(const Dictionary& dictionary,
                              NodeId node) const;

 private:
  AttributeHierarchy() = default;
  void FinishConstruction();

  std::size_t num_leaves_ = 0;
  std::vector<NodeId> parent_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<NodeId> roots_;
  std::vector<std::string> internal_names_;  // for ids >= num_leaves_
  std::vector<std::size_t> depth_;
  std::vector<std::uint32_t> euler_in_;
  std::vector<std::uint32_t> euler_out_;
  std::vector<std::size_t> leaf_count_;
  // Root-to-leaf node chain per leaf (chains_[leaf][0] is the root,
  // chains_[leaf].back() == leaf).
  std::vector<std::vector<NodeId>> chains_;
};

/// One hierarchy per pattern attribute of a table.
class TableHierarchy {
 public:
  /// All-flat hierarchies for every attribute of `table`.
  static TableHierarchy Flat(const Table& table);

  /// Flat hierarchies except the listed overrides (attribute index ->
  /// hierarchy). Fails when an override's leaf count does not match the
  /// attribute's domain.
  static Result<TableHierarchy> Build(
      const Table& table,
      std::vector<std::pair<std::size_t, AttributeHierarchy>> overrides);

  std::size_t num_attributes() const { return per_attribute_.size(); }
  const AttributeHierarchy& attribute(std::size_t a) const {
    return per_attribute_[a];
  }

 private:
  explicit TableHierarchy(std::vector<AttributeHierarchy> per_attribute)
      : per_attribute_(std::move(per_attribute)) {}
  std::vector<AttributeHierarchy> per_attribute_;
};

}  // namespace hierarchy
}  // namespace scwsc

#endif  // SCWSC_HIERARCHY_HIERARCHY_H_
