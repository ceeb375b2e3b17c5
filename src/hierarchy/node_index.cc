#include "src/hierarchy/node_index.h"

#include <numeric>

#include "src/common/logging.h"

namespace scwsc {
namespace hierarchy {

NodeIndex::NodeIndex(const Table& table, const TableHierarchy& hierarchy)
    : table_(table), hierarchy_(hierarchy) {
  SCWSC_CHECK(hierarchy.num_attributes() == table.num_attributes(),
              "hierarchy arity does not match table");
  const std::size_t j = table.num_attributes();
  offsets_.resize(j);
  rows_.resize(j);
  for (std::size_t a = 0; a < j; ++a) {
    const AttributeHierarchy& h = hierarchy.attribute(a);
    const std::vector<ValueId>& column = table.column(a);
    // Count each node's rows by propagating leaf frequencies up the forest,
    // then fill in row order so every posting list comes out sorted.
    std::vector<std::size_t> count(h.num_nodes(), 0);
    for (ValueId leaf : column) ++count[leaf];
    std::vector<std::size_t> subtree(count);
    for (NodeId leaf = 0; leaf < h.num_leaves(); ++leaf) {
      for (NodeId v = h.parent(leaf); v != kNoNode; v = h.parent(v)) {
        subtree[v] += count[leaf];
      }
    }
    std::vector<std::size_t>& offsets = offsets_[a];
    offsets.assign(h.num_nodes() + 1, 0);
    std::partial_sum(subtree.begin(), subtree.end(), offsets.begin() + 1);
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    rows_[a].resize(offsets.back());
    for (RowId r = 0; r < column.size(); ++r) {
      for (NodeId v = column[r]; v != kNoNode; v = h.parent(v)) {
        rows_[a][cursor[v]++] = r;
      }
    }
  }
  all_rows_.resize(table.num_rows());
  std::iota(all_rows_.begin(), all_rows_.end(), RowId{0});
}

std::span<const RowId> NodeIndex::Postings(std::size_t attr,
                                           NodeId node) const {
  SCWSC_DCHECK(attr < rows_.size());
  if (node == kAllNode) return all_rows_;
  SCWSC_DCHECK(node + 1 < offsets_[attr].size());
  const std::size_t begin = offsets_[attr][node];
  return std::span<const RowId>(rows_[attr]).subspan(
      begin, offsets_[attr][node + 1] - begin);
}

std::vector<RowId> NodeIndex::Ben(const HPattern& p) const {
  SCWSC_DCHECK(p.num_attributes() == rows_.size());
  // Seed from the shortest posting list, then filter by the remaining
  // constraints directly against the table.
  std::span<const RowId> seed = all_rows_;
  std::size_t seed_attr = p.num_attributes();
  for (std::size_t a = 0; a < p.num_attributes(); ++a) {
    if (p.is_wildcard(a)) continue;
    const std::span<const RowId> postings = Postings(a, p.node(a));
    if (postings.size() < seed.size()) {
      seed = postings;
      seed_attr = a;
    }
  }
  std::vector<RowId> out;
  out.reserve(seed.size());
  for (RowId r : seed) {
    bool match = true;
    for (std::size_t a = 0; a < p.num_attributes() && match; ++a) {
      if (a == seed_attr || p.is_wildcard(a)) continue;
      match = hierarchy_.attribute(a).IsAncestorOrSelf(p.node(a),
                                                       table_.value(r, a));
    }
    if (match) out.push_back(r);
  }
  return out;
}

}  // namespace hierarchy
}  // namespace scwsc
