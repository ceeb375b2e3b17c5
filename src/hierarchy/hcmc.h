// Optimized CMC over hierarchical patterns — Fig. 4 generalized to the
// hierarchy lattice, completing the §II extension for both of the paper's
// algorithms. Shares the budget schedule and level structure with the
// generic CMC (BuildCmcLevels) and the engineering of the flat optimized
// CMC: lazy marginal refresh, pop-time cost computation from node postings
// (NodeIndex), scratch-array child grouping (HChildGrouper), and the
// shared budget seed and round-feasibility precheck (pattern/opt_cmc.h).

#ifndef SCWSC_HIERARCHY_HCMC_H_
#define SCWSC_HIERARCHY_HCMC_H_

#include "src/common/result.h"
#include "src/core/cmc.h"
#include "src/hierarchy/hcwsc.h"

namespace scwsc {
namespace hierarchy {

/// Lattice-optimized CMC under `hierarchy`. Coverage/size guarantees match
/// the generic CMC (Theorems 4/5) since the hierarchical patterns form just
/// another set system containing the all-wildcards universe set.
Result<HSolution> RunHierarchicalCmc(const Table& table,
                                     const TableHierarchy& hierarchy,
                                     const pattern::CostFunction& cost_fn,
                                     const CmcOptions& options,
                                     pattern::PatternStats* stats = nullptr);

}  // namespace hierarchy
}  // namespace scwsc

#endif  // SCWSC_HIERARCHY_HCMC_H_
