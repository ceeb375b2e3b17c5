#include "src/hierarchy/hcmc.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "src/common/bitset.h"
#include "src/hierarchy/hlattice.h"
#include "src/hierarchy/node_index.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pattern/opt_cmc.h"

namespace scwsc {
namespace hierarchy {
namespace {

struct Candidate {
  std::vector<RowId> mben;
  std::size_t epoch = 0;
  double cost = 0.0;
  bool cost_known = false;
};

struct HeapEntry {
  std::size_t count;
  HPattern key;
};
struct HeapLess {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.count != b.count) return a.count < b.count;
    return CanonicalLess(b.key, a.key);
  }
};

}  // namespace

Result<HSolution> RunHierarchicalCmc(const Table& table,
                                     const TableHierarchy& hierarchy,
                                     const pattern::CostFunction& cost_fn,
                                     const CmcOptions& options,
                                     pattern::PatternStats* stats) {
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (options.l == 0) return Status::InvalidArgument("l must be positive");
  if (options.coverage_fraction < 0.0 || options.coverage_fraction > 1.0) {
    return Status::InvalidArgument("coverage_fraction must be in [0, 1]");
  }
  if (options.b <= 0.0) {
    return Status::InvalidArgument("budget growth b must be positive");
  }
  if (options.epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be >= 0");
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
  const std::size_t j = table.num_attributes();
  const std::size_t target =
      CmcCoverageTarget(options.coverage_fraction, n, options.relax_coverage);

  HSolution solution;
  if (target == 0) return solution;
  if (n == 0) return Status::Infeasible("empty table with positive target");

  std::vector<RowId> all_rows(n);
  for (RowId r = 0; r < n; ++r) all_rows[r] = r;
  const double root_cost = cost_fn.Compute(table, all_rows);

  double budget = pattern::LatticeCmcBudgetSeed(table, options.k);
  const pattern::RoundFeasibility feasibility(table, cost_fn);
  const NodeIndex index(table, hierarchy);
  HChildGrouper group_children(table, hierarchy);

  DynamicBitset covered(n);
  bool final_round = budget >= root_cost;

  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  // `partial` must arrive with `covered` already stamped; each round
  // restarts from scratch, so the previous (insufficient) round is the
  // best-so-far for a trip between rounds.
  auto interrupted = [&](TripKind trip, HSolution partial) -> Status {
    partial.provenance.trip = trip;
    partial.provenance.sets_chosen = partial.patterns.size();
    partial.provenance.coverage_reached = partial.covered;
    partial.provenance.budget_level = budget;
    return TripStatus(trip, "hierarchical cmc").WithPayload(std::move(partial));
  };
  HSolution last_round;

  using CandidateMap = std::unordered_map<HPattern, Candidate, HPatternHash>;
  using KeySet = std::unordered_set<HPattern, HPatternHash>;
  using Heap = std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLess>;

  obs::Span cmc_span(options.trace, "hcmc");
  obs::MetricCounter* considered_metric = nullptr;
  obs::MetricCounter* admitted_metric = nullptr;
  if (options.trace != nullptr) {
    considered_metric = &options.trace->metrics().counter("pattern.considered");
    admitted_metric = &options.trace->metrics().counter("pattern.admitted");
  }

  for (std::size_t round = 1; round <= options.max_budget_rounds; ++round) {
    if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
      return interrupted(trip, std::move(last_round));
    }
    st.budget_rounds = round;
    if (feasibility.CoverableRows(budget) < target) {
      if (final_round) {
        return Status::Infeasible(
            "hierarchical CMC: coverage unreachable even at the "
            "all-wildcards pattern's cost");
      }
      budget *= (1.0 + options.b);
      if (budget >= root_cost) {
        budget = root_cost;
        final_round = true;
      }
      continue;
    }

    obs::Span round_span(options.trace, "hcmc.round");
    const auto levels =
        BuildCmcLevels(budget, options.k, options.epsilon, options.l);
    std::size_t total_allowance = 0;
    for (const auto& lv : levels) total_allowance += lv.capacity;

    covered.clear();
    std::size_t rem = target;
    CandidateMap candidates;
    KeySet visited;
    KeySet selected;
    std::vector<std::size_t> level_count(levels.size(), 0);
    std::size_t total_count = 0;
    std::size_t epoch = 0;

    HSolution round_solution;

    {
      Candidate root;
      root.mben = all_rows;
      root.cost = root_cost;
      root.cost_known = true;
      ++st.patterns_considered;
      ++st.candidates_admitted;
      if (considered_metric != nullptr) considered_metric->Increment();
      if (admitted_metric != nullptr) admitted_metric->Increment();
      candidates.emplace(HPattern::AllWildcards(j), std::move(root));
    }
    Heap heap;
    heap.push(HeapEntry{n, HPattern::AllWildcards(j)});

    while (!candidates.empty() && total_count <= total_allowance && rem > 0) {
      if (heap.empty()) break;
      if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
        round_solution.covered = covered.count();
        return interrupted(trip, std::move(round_solution));
      }
      HeapEntry top = heap.top();
      heap.pop();
      auto qit = candidates.find(top.key);
      if (qit == candidates.end()) continue;
      Candidate& cand_ref = qit->second;
      if (cand_ref.epoch != epoch) {
        auto& m = cand_ref.mben;
        m.erase(std::remove_if(m.begin(), m.end(),
                               [&](RowId r) { return covered.test(r); }),
                m.end());
        cand_ref.epoch = epoch;
        if (m.empty()) {
          candidates.erase(qit);
          continue;
        }
      }
      if (cand_ref.mben.size() != top.count) {
        heap.push(HeapEntry{cand_ref.mben.size(), std::move(top.key)});
        continue;
      }

      const HPattern q_key = top.key;
      Candidate q = std::move(qit->second);
      candidates.erase(qit);
      if (!q.cost_known) {
        q.cost = cost_fn.Compute(table, index.Ben(q_key));
        q.cost_known = true;
      }

      const int level = LevelOf(levels, q.cost);
      bool selected_now = false;
      if (level >= 0) {
        std::size_t& cnt = level_count[static_cast<std::size_t>(level)];
        ++cnt;
        ++total_count;
        if (cnt <= levels[static_cast<std::size_t>(level)].capacity) {
          selected_now = true;
        }
      }

      if (selected_now) {
        round_span.Event("pick");
        round_solution.patterns.push_back(q_key);
        round_solution.total_cost += q.cost;
        selected.insert(q_key);
        const std::size_t newly = q.mben.size();
        for (RowId r : q.mben) covered.set(r);
        rem = newly >= rem ? 0 : rem - newly;
        ++epoch;
        if (rem == 0) break;
        continue;
      }

      visited.insert(q_key);
      // Children of q with non-zero marginal benefit, grouped by the
      // one-step specialization containing each row. One lattice expansion
      // per prospective child; a trip surfaces at the next heap-pop Check.
      auto groups = group_children(q_key, q.mben);
      ctx.ChargeNodes(groups.size());
      for (auto& group : groups) {
        HPattern child = q_key.WithNode(group.attr, group.node);
        if (candidates.count(child) || visited.count(child) ||
            selected.count(child)) {
          continue;
        }
        bool parents_ok = true;
        for (std::size_t pa = 0; pa < j && parents_ok; ++pa) {
          // The parent at group.attr is q, visited just above.
          if (pa == group.attr || child.is_wildcard(pa)) continue;
          if (!visited.count(child.ParentAt(hierarchy, pa))) {
            parents_ok = false;
          }
        }
        if (!parents_ok) continue;
        Candidate cand;
        cand.mben = std::move(group.marginal_rows);
        cand.epoch = epoch;
        ++st.patterns_considered;
        ++st.candidates_admitted;
        if (considered_metric != nullptr) considered_metric->Increment();
        if (admitted_metric != nullptr) admitted_metric->Increment();
        const std::size_t count = cand.mben.size();
        candidates.emplace(child, std::move(cand));
        heap.push(HeapEntry{count, std::move(child)});
      }
    }

    if (rem == 0) {
      round_solution.covered = covered.count();
      st.final_budget = budget;
      return round_solution;
    }
    round_solution.covered = covered.count();
    last_round = std::move(round_solution);
    if (final_round) {
      return Status::Infeasible(
          "hierarchical CMC: coverage unreachable even at the all-wildcards "
          "pattern's cost");
    }
    budget *= (1.0 + options.b);
    if (budget >= root_cost) {
      budget = root_cost;
      final_round = true;
    }
  }
  return Status::ResourceExhausted(
      "hierarchical CMC: max_budget_rounds exceeded");
}

}  // namespace hierarchy
}  // namespace scwsc
