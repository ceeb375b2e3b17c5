#include "src/hierarchy/hlattice.h"

#include <algorithm>

namespace scwsc {
namespace hierarchy {

HChildGrouper::HChildGrouper(const Table& table,
                             const TableHierarchy& hierarchy)
    : table_(table), hierarchy_(hierarchy) {
  slot_.resize(hierarchy.num_attributes());
  for (std::size_t a = 0; a < hierarchy.num_attributes(); ++a) {
    slot_[a].assign(hierarchy.attribute(a).num_nodes(), 0);
  }
}

std::vector<HChildGroup> HChildGrouper::operator()(
    const HPattern& parent, const std::vector<RowId>& rows) {
  std::vector<HChildGroup> groups;
  row_node_.resize(rows.size());
  for (std::size_t a = 0; a < parent.num_attributes(); ++a) {
    const AttributeHierarchy& h = hierarchy_.attribute(a);
    const NodeId pnode = parent.node(a);
    if (pnode != kAllNode && h.is_leaf(pnode)) continue;  // no children
    const std::size_t child_depth =
        pnode == kAllNode ? 0 : h.depth(pnode) + 1;
    const std::vector<ValueId>& column = table_.column(a);
    std::vector<std::uint32_t>& slot = slot_[a];
    const std::size_t first = groups.size();
    group_size_.clear();
    // Pass 1: each row's child node (rows come from MBen(parent), so below
    // an internal node the chain lookup yields the child on the leaf's
    // path) and each group's size.
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const NodeId leaf = column[rows[i]];
      if (h.depth(leaf) < child_depth) {  // leaf sits above the children
        row_node_[i] = kNoNode;
        continue;
      }
      const NodeId node = h.AncestorAtDepth(leaf, child_depth);
      row_node_[i] = node;
      std::uint32_t& g = slot[node];
      if (g == 0) {
        groups.push_back(HChildGroup{a, node, {}});
        group_size_.push_back(0);
        g = static_cast<std::uint32_t>(group_size_.size());
      }
      ++group_size_[g - 1];
    }
    // Pass 2: fill each group's rows at their exact size.
    for (std::size_t g = 0; g < group_size_.size(); ++g) {
      groups[first + g].marginal_rows.reserve(group_size_[g]);
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (row_node_[i] == kNoNode) continue;
      groups[first + slot[row_node_[i]] - 1].marginal_rows.push_back(rows[i]);
    }
    for (std::size_t g = first; g < groups.size(); ++g) {
      slot[groups[g].node] = 0;
    }
    std::sort(groups.begin() + static_cast<std::ptrdiff_t>(first),
              groups.end(), [](const HChildGroup& x, const HChildGroup& y) {
                return x.node < y.node;
              });
  }
  return groups;
}

}  // namespace hierarchy
}  // namespace scwsc
