// Umbrella header for the scwsc library: size-constrained weighted set
// cover (Golab, Korn, Li, Saha, Srivastava — ICDE 2015).
//
// Typical usage (patterned data):
//
//   #include "src/scwsc.h"
//   using namespace scwsc;
//
//   Table table = ...;                          // categorical attrs + measure
//   pattern::CostFunction cost(pattern::CostKind::kMax);
//   CwscOptions opts{.k = 10, .coverage_fraction = 0.3};
//   auto solution = pattern::RunOptimizedCwsc(table, cost, opts);
//
// For arbitrary (non-patterned) weighted set systems build a SetSystem and
// call RunCwsc / RunCmc directly.

#ifndef SCWSC_SCWSC_H_
#define SCWSC_SCWSC_H_

#include "src/api/instance.h"
#include "src/api/registry.h"
#include "src/api/solver.h"
#include "src/common/bitset.h"
#include "src/common/logging.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/strings.h"
#include "src/core/baselines.h"
#include "src/core/cmc.h"
#include "src/core/cwsc.h"
#include "src/core/exact.h"
#include "src/core/instances.h"
#include "src/core/literal.h"
#include "src/core/nonoverlap.h"
#include "src/core/set_system.h"
#include "src/core/solution.h"
#include "src/ext/incremental.h"
#include "src/ext/multiweight.h"
#include "src/gen/lbl_parser.h"
#include "src/gen/lbl_synth.h"
#include "src/hierarchy/bucketize.h"
#include "src/hierarchy/hcmc.h"
#include "src/hierarchy/hcwsc.h"
#include "src/hierarchy/henumerate.h"
#include "src/hierarchy/hierarchy.h"
#include "src/hierarchy/hlattice.h"
#include "src/hierarchy/hpattern.h"
#include "src/hierarchy/node_index.h"
#include "src/gen/perturb.h"
#include "src/gen/toy.h"
#include "src/gen/tripartite.h"
#include "src/lp/lp_rounding.h"
#include "src/lp/simplex.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pattern/benefit_index.h"
#include "src/pattern/cost.h"
#include "src/pattern/enumerate.h"
#include "src/pattern/lattice.h"
#include "src/pattern/opt_cmc.h"
#include "src/pattern/opt_cwsc.h"
#include "src/pattern/pattern.h"
#include "src/pattern/pattern_system.h"
#include "src/pattern/stats.h"
#include "src/table/builder.h"
#include "src/table/csv.h"
#include "src/table/schema.h"
#include "src/table/table.h"

#endif  // SCWSC_SCWSC_H_
