#include "src/hierarchy/hcwsc.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "src/common/bitset.h"
#include "src/common/thread_pool.h"
#include "src/core/benefit_engine.h"
#include "src/hierarchy/hlattice.h"
#include "src/hierarchy/node_index.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace scwsc {
namespace hierarchy {
namespace {

struct Candidate {
  HPattern pattern;
  std::vector<RowId> mben;
  double cost = 0.0;
  bool processed = false;
};

using CandidateMap = std::unordered_map<HPattern, Candidate, HPatternHash>;

struct WaitEntry {
  std::size_t count;
  const HPattern* pattern;
};
struct WaitLess {
  bool operator()(const WaitEntry& a, const WaitEntry& b) const {
    if (a.count != b.count) return a.count < b.count;
    return CanonicalLess(*b.pattern, *a.pattern);
  }
};

bool BetterCandidate(const Candidate& cand, const Candidate& best) {
  const std::size_t ca = cand.mben.size();
  const std::size_t cb = best.mben.size();
  if (BetterGain(ca, cand.cost, cb, best.cost)) return true;
  if (BetterGain(cb, best.cost, ca, cand.cost)) return false;
  if (ca != cb) return ca > cb;
  if (cand.cost != best.cost) return cand.cost < best.cost;
  return CanonicalLess(cand.pattern, best.pattern);
}

}  // namespace

Result<HSolution> RunHierarchicalCwsc(const Table& table,
                                      const TableHierarchy& hierarchy,
                                      const pattern::CostFunction& cost_fn,
                                      const CwscOptions& options,
                                      pattern::PatternStats* stats) {
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (options.coverage_fraction < 0.0 || options.coverage_fraction > 1.0) {
    return Status::InvalidArgument("coverage_fraction must be in [0, 1]");
  }
  if (!table.has_measure()) {
    return Status::InvalidArgument("pattern costs require a measure column");
  }
  if (hierarchy.num_attributes() != table.num_attributes()) {
    return Status::InvalidArgument("hierarchy arity does not match table");
  }

  pattern::PatternStats local_stats;
  pattern::PatternStats& st = stats ? *stats : local_stats;
  st = pattern::PatternStats{};

  const std::size_t n = table.num_rows();
  std::size_t rem = SetSystem::CoverageTarget(options.coverage_fraction, n);
  HSolution solution;
  if (rem == 0) return solution;
  if (n == 0) return Status::Infeasible("empty table with positive target");

  DynamicBitset covered(n);
  obs::Span span(options.trace, "hcwsc");
  obs::MetricCounter* considered_metric = nullptr;
  obs::MetricCounter* admitted_metric = nullptr;
  if (options.trace != nullptr) {
    considered_metric = &options.trace->metrics().counter("pattern.considered");
    admitted_metric = &options.trace->metrics().counter("pattern.admitted");
  }
  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  auto interrupted = [&](TripKind trip) -> Status {
    solution.covered = covered.count();
    solution.provenance.trip = trip;
    solution.provenance.sets_chosen = solution.patterns.size();
    solution.provenance.coverage_reached = solution.covered;
    return TripStatus(trip, "hierarchical cwsc").WithPayload(solution);
  };
  const NodeIndex index(table, hierarchy);
  HChildGrouper group_children(table, hierarchy);
  CandidateMap candidates;
  std::unordered_set<HPattern, HPatternHash> selected;

  // Candidate-scan pool for the per-iteration MBen refresh; each candidate's
  // posting list is filtered independently, so any lane count is
  // bit-identical to serial.
  std::unique_ptr<ThreadPool> pool;
  if (ThreadPool::ResolveThreads(options.engine.num_threads) > 1) {
    pool = std::make_unique<ThreadPool>(options.engine.num_threads);
  }

  {
    Candidate root;
    root.pattern = HPattern::AllWildcards(table.num_attributes());
    root.mben.resize(n);
    for (RowId r = 0; r < n; ++r) root.mben[r] = r;
    root.cost = cost_fn.Compute(table, root.mben);
    ++st.patterns_considered;
    ++st.candidates_admitted;
    if (considered_metric != nullptr) considered_metric->Increment();
    if (admitted_metric != nullptr) admitted_metric->Increment();
    candidates.emplace(root.pattern, std::move(root));
  }

  for (std::size_t i = options.k; i >= 1; --i) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      return interrupted(trip);
    }
    obs::Span descend_span(options.trace, "hcwsc.descend");
    for (auto it = candidates.begin(); it != candidates.end();) {
      if (it->second.mben.size() * i < rem) {
        it = candidates.erase(it);
      } else {
        it->second.processed = false;
        ++it;
      }
    }

    std::priority_queue<WaitEntry, std::vector<WaitEntry>, WaitLess> waitlist;
    for (auto& [pat, cand] : candidates) {
      waitlist.push(WaitEntry{cand.mben.size(), &pat});
    }
    while (!waitlist.empty()) {
      if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
        return interrupted(trip);
      }
      const WaitEntry top = waitlist.top();
      waitlist.pop();
      auto qit = candidates.find(*top.pattern);
      if (qit == candidates.end() || qit->second.processed) continue;
      Candidate& q = qit->second;
      q.processed = true;

      auto groups = group_children(q.pattern, q.mben);
      // Each prospective child is one lattice expansion against the
      // node-expansion budget; a trip surfaces at the next Check above.
      ctx.ChargeNodes(groups.size());

      struct Pending {
        std::size_t group_index;
        HPattern child;
      };
      std::vector<Pending> pending;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        HPattern child = q.pattern.WithNode(groups[g].attr, groups[g].node);
        if (candidates.count(child) || selected.count(child)) continue;
        bool parents_ok = true;
        for (std::size_t a = 0; a < child.num_attributes() && parents_ok;
             ++a) {
          // The parent at groups[g].attr is q, a candidate by construction.
          if (a == groups[g].attr || child.is_wildcard(a)) continue;
          if (!candidates.count(child.ParentAt(hierarchy, a))) {
            parents_ok = false;
          }
        }
        if (!parents_ok) continue;
        pending.push_back(Pending{g, std::move(child)});
      }

      for (auto& pend : pending) {
        HChildGroup& group = groups[pend.group_index];
        ++st.patterns_considered;
        if (considered_metric != nullptr) considered_metric->Increment();
        if (group.marginal_rows.size() * i < rem) continue;
        // Admitted: cost it from Ben(child), read off the node postings.
        Candidate cand;
        cand.pattern = std::move(pend.child);
        cand.mben = std::move(group.marginal_rows);
        cand.cost = cost_fn.Compute(table, index.Ben(cand.pattern));
        ++st.candidates_admitted;
        if (admitted_metric != nullptr) admitted_metric->Increment();
        auto [it, inserted] = candidates.emplace(cand.pattern, std::move(cand));
        SCWSC_CHECK(inserted, "candidate admitted twice");
        waitlist.push(WaitEntry{it->second.mben.size(), &it->first});
      }
    }

    const Candidate* best = nullptr;
    for (const auto& [pat, cand] : candidates) {
      if (best == nullptr || BetterCandidate(cand, *best)) best = &cand;
    }
    if (best == nullptr) {
      return Status::Infeasible("hierarchical CWSC: no qualified candidate");
    }

    descend_span.Event("pick");
    solution.patterns.push_back(best->pattern);
    solution.total_cost += best->cost;
    const std::size_t newly = best->mben.size();
    for (RowId r : best->mben) covered.set(r);
    selected.insert(best->pattern);
    candidates.erase(best->pattern);
    rem = newly >= rem ? 0 : rem - newly;
    solution.covered = covered.count();
    if (rem == 0) return solution;

    std::vector<std::vector<RowId>*> mben_lists;
    mben_lists.reserve(candidates.size());
    for (auto& [pat, cand] : candidates) mben_lists.push_back(&cand.mben);
    const Status filtered =
        FilterCoveredIds(covered, mben_lists, pool.get(), &ctx);
    if (!filtered.ok()) {
      if (!filtered.IsInterruption()) return filtered;  // pool task threw
      return interrupted(ctx.tripped());
    }
    for (auto it = candidates.begin(); it != candidates.end();) {
      if (it->second.mben.empty()) {
        it = candidates.erase(it);
      } else {
        ++it;
      }
    }
  }

  return Status::Internal(
      "hierarchical CWSC exhausted k picks without meeting coverage");
}

}  // namespace hierarchy
}  // namespace scwsc
