// NodeIndex: per-(attribute, hierarchy node) posting lists over a Table.
//
// The postings of node v of attribute a are the rows whose leaf value lies
// in v's subtree, sorted by row id; the ALL wildcard's postings are every
// row. Ben(p) of a hierarchical pattern seeds from the shortest posting
// list among p's constraints and filters the others with O(1) Euler-tour
// ancestor tests, so costing a popped pattern touches only the rows of its
// most selective constraint instead of scanning the table. On a flat
// hierarchy the postings are exactly pattern::BenefitIndex's.

#ifndef SCWSC_HIERARCHY_NODE_INDEX_H_
#define SCWSC_HIERARCHY_NODE_INDEX_H_

#include <span>
#include <vector>

#include "src/hierarchy/hpattern.h"
#include "src/table/table.h"

namespace scwsc {
namespace hierarchy {

class NodeIndex {
 public:
  /// Both must outlive the index.
  NodeIndex(const Table& table, const TableHierarchy& hierarchy);

  /// Rows whose attribute-`attr` leaf lies in `node`'s subtree, ascending;
  /// every row for kAllNode.
  std::span<const RowId> Postings(std::size_t attr, NodeId node) const;

  /// Ben(p): rows of the table matching p, ascending.
  std::vector<RowId> Ben(const HPattern& p) const;

 private:
  const Table& table_;
  const TableHierarchy& hierarchy_;
  // Per attribute, CSR layout: node v's rows are
  // rows_[a][offsets_[a][v] .. offsets_[a][v + 1]).
  std::vector<std::vector<std::size_t>> offsets_;
  std::vector<std::vector<RowId>> rows_;
  std::vector<RowId> all_rows_;
};

}  // namespace hierarchy
}  // namespace scwsc

#endif  // SCWSC_HIERARCHY_NODE_INDEX_H_
