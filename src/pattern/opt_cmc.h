// Optimized CMC for patterned sets (paper Fig. 4, §V-C2).
//
// Per budget round, the search starts at the all-wildcards pattern and
// repeatedly takes the candidate with the highest marginal benefit. A
// candidate whose cost fits the budget and whose cost level still has
// allowance is selected; otherwise it is marked "visited" and its children
// become eligible (admitted once all their parents have been visited).
// Level structure and budget schedule are shared with the generic CMC
// (BuildCmcLevels), including the (1+ε)k merged-level variant and the
// generalized base 1+l.

#ifndef SCWSC_PATTERN_OPT_CMC_H_
#define SCWSC_PATTERN_OPT_CMC_H_

#include "src/common/result.h"
#include "src/core/cmc.h"
#include "src/pattern/cost.h"
#include "src/pattern/stats.h"

namespace scwsc {
namespace pattern {

/// Fig. 4 line 01 seeds the budget with the cost of the k cheapest
/// patterns, which a lattice-only algorithm cannot know without
/// enumerating. The lattice CMCs (this one and the hierarchical one) seed
/// with the lower bound k * (smallest row measure) instead: every pattern
/// covers some row, so under max/sum/lp costs its cost is at least the
/// smallest measure. A lower start only adds cheap early rounds (skipped by
/// the feasibility precheck); the geometric schedule is unchanged.
double LatticeCmcBudgetSeed(const Table& table, std::size_t k);

/// Round-feasibility precheck of the lattice CMCs. Every pattern covering
/// row r also covers all rows identical to r, so its cost is at least the
/// aggregate of r's duplicate group (exactly for max; a lower bound for
/// sum / lp-norms when measures are non-negative, since those aggregates
/// are monotone under superset). A round with budget B can therefore cover
/// at most |{r : group_aggregate(r) <= B}| rows; when that is below the
/// target the round is provably infeasible and the lattice descent is
/// skipped. This mirrors Fig. 4's early rounds, which fail after fruitless
/// work: the outcome is identical, the work is not. Hierarchical patterns
/// also cover whole duplicate groups, so the bound carries over unchanged.
class RoundFeasibility {
 public:
  RoundFeasibility(const Table& table, const CostFunction& cost_fn);

  /// Upper bound on the rows a round with budget `budget` can cover
  /// (every row when the bound is unavailable).
  std::size_t CoverableRows(double budget) const;

 private:
  std::size_t num_rows_;
  // One duplicate-group aggregate per row, ascending; empty when negative
  // measures make the bound invalid.
  std::vector<double> thresholds_;
};

/// Runs the lattice-optimized CMC directly over `table`. `stats`, when
/// non-null, receives the "patterns considered" instrumentation, summed
/// over budget rounds (Fig. 6).
Result<PatternSolution> RunOptimizedCmc(const Table& table,
                                        const CostFunction& cost_fn,
                                        const CmcOptions& options,
                                        PatternStats* stats = nullptr);

}  // namespace pattern
}  // namespace scwsc

#endif  // SCWSC_PATTERN_OPT_CMC_H_
