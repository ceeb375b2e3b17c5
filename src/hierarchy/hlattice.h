// Hierarchical-lattice navigation shared by the hierarchical descents
// (hcwsc, hcmc): the hierarchy counterpart of pattern/lattice.h.
//
// A child of a hierarchical pattern specializes one attribute one step
// down its forest: below ALL to a forest root, below an internal node to
// one of its children; leaves have no children. As in the flat lattice,
// children are enumerated data-driven: grouping the parent's marginal
// benefit rows by the one-step specialization that contains them yields
// every child with non-zero marginal benefit together with exactly its
// marginal benefit rows.

#ifndef SCWSC_HIERARCHY_HLATTICE_H_
#define SCWSC_HIERARCHY_HLATTICE_H_

#include <cstdint>
#include <vector>

#include "src/hierarchy/hpattern.h"
#include "src/table/table.h"

namespace scwsc {
namespace hierarchy {

/// One prospective child of a parent pattern: specialize attribute `attr`
/// to `node`; `marginal_rows` is exactly MBen(child) when the grouped rows
/// were MBen(parent).
struct HChildGroup {
  std::size_t attr = 0;
  NodeId node = kNoNode;
  std::vector<RowId> marginal_rows;
};

/// Repeated child grouping on per-attribute scratch arrays sized by the
/// hierarchy's node counts: each call costs O(|rows| * attributes + groups)
/// with no hashing, and each group's row list is allocated once at its
/// exact size. Groups come out ordered by (attribute, node id). Not
/// thread-safe; one instance per solver run.
class HChildGrouper {
 public:
  /// Both must outlive the grouper.
  HChildGrouper(const Table& table, const TableHierarchy& hierarchy);

  std::vector<HChildGroup> operator()(const HPattern& parent,
                                      const std::vector<RowId>& rows);

 private:
  const Table& table_;
  const TableHierarchy& hierarchy_;
  // slot_[attr][node] = index of node's group within the current
  // attribute's run + 1 (0 = none yet); reset after every attribute.
  std::vector<std::vector<std::uint32_t>> slot_;
  // Per grouped row: its child node (kNoNode when its leaf sits above the
  // child depth); per group: its row count.
  std::vector<NodeId> row_node_;
  std::vector<std::size_t> group_size_;
};

}  // namespace hierarchy
}  // namespace scwsc

#endif  // SCWSC_HIERARCHY_HLATTICE_H_
