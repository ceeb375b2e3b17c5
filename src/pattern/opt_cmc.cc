#include "src/pattern/opt_cmc.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "src/common/bitset.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pattern/benefit_index.h"
#include "src/pattern/codec.h"
#include "src/pattern/lattice.h"

namespace scwsc {
namespace pattern {
namespace {

/// Key operations for tables whose patterns pack into 64 bits: candidate
/// maps, visited/selected sets and heap entries are all plain integers.
struct PackedOps {
  using Key = std::uint64_t;
  using Hash = PackedKeyHash;
  const PatternCodec* codec;

  Key Root() const { return 0; }
  Key Child(Key key, std::size_t attr, ValueId v) const {
    return codec->WithValue(key, attr, v);
  }
  Key Parent(Key key, std::size_t attr) const {
    return codec->WithWildcard(key, attr);
  }
  bool IsWildcard(Key key, std::size_t attr) const {
    return codec->IsWildcard(key, attr);
  }
  Pattern ToPattern(Key key) const { return codec->Decode(key); }
};

/// Fallback for tables with more than 64 bits of attribute width.
struct GenericOps {
  using Key = Pattern;
  using Hash = PatternHash;
  std::size_t num_attributes;

  Key Root() const { return Pattern::AllWildcards(num_attributes); }
  Key Child(const Key& key, std::size_t attr, ValueId v) const {
    return key.WithValue(attr, v);
  }
  Key Parent(const Key& key, std::size_t attr) const {
    return key.WithWildcard(attr);
  }
  bool IsWildcard(const Key& key, std::size_t attr) const {
    return key.is_wildcard(attr);
  }
  Pattern ToPattern(const Key& key) const { return key; }
};

template <typename Ops>
struct Candidate {
  std::vector<RowId> mben;
  /// Coverage epoch mben was last filtered against; refreshed lazily at pop
  /// time so selections cost O(pops) instead of O(selections x |C|).
  std::size_t epoch = 0;
  /// Cost is computed on first pop (each pattern pops at most once per
  /// round) via the shared BenefitIndex; admission only needs MBen.
  double cost = 0.0;
  bool cost_known = false;
};

template <typename Ops>
struct HeapEntry {
  std::size_t count;
  typename Ops::Key key;
};
template <typename Ops>
struct HeapLess {
  bool operator()(const HeapEntry<Ops>& a, const HeapEntry<Ops>& b) const {
    if (a.count != b.count) return a.count < b.count;
    // Deterministic tie-break: canonical pattern order for Pattern keys, a
    // plain (equally deterministic) integer order for packed keys.
    if constexpr (std::is_same_v<typename Ops::Key, std::uint64_t>) {
      return b.key < a.key;
    } else {
      return CanonicalLess(b.key, a.key);
    }
  }
};

template <typename Ops>
Result<PatternSolution> RunOptimizedCmcImpl(const Table& table,
                                            const CostFunction& cost_fn,
                                            const CmcOptions& options,
                                            PatternStats& st, const Ops& ops) {
  using Key = typename Ops::Key;
  using Hash = typename Ops::Hash;

  const std::size_t n = table.num_rows();
  const std::size_t j = table.num_attributes();
  const std::size_t target =
      CmcCoverageTarget(options.coverage_fraction, n, options.relax_coverage);

  PatternSolution solution;
  if (target == 0) return solution;
  if (n == 0) return Status::Infeasible("empty table with positive target");

  std::vector<RowId> all_rows(n);
  for (RowId r = 0; r < n; ++r) all_rows[r] = r;
  const double root_cost = cost_fn.Compute(table, all_rows);

  double budget = LatticeCmcBudgetSeed(table, options.k);
  const RoundFeasibility feasibility(table, cost_fn);

  // Shared posting lists: deferred candidate costs are computed from
  // Ben(p) on first pop instead of by filtering the parent's benefit list
  // at admission time.
  const BenefitIndex index(table);
  const RunContext& ctx =
      options.run_context ? *options.run_context : RunContext::Unlimited();
  ChildGrouper group_children(table, &ctx);

  DynamicBitset covered(n);
  bool final_round = budget >= root_cost;

  // Trips surrender the in-progress round's selection (or the previous
  // round's, between rounds) with the budget level recorded in provenance.
  PatternSolution last_round;
  auto interrupted = [&](TripKind trip, PatternSolution partial) -> Status {
    partial.provenance.trip = trip;
    partial.provenance.sets_chosen = partial.patterns.size();
    partial.provenance.coverage_reached = partial.covered;
    partial.provenance.budget_level = budget;
    return TripStatus(trip, "optimized cmc").WithPayload(std::move(partial));
  };

  using CandidateMap = std::unordered_map<Key, Candidate<Ops>, Hash>;
  using KeySet = std::unordered_set<Key, Hash>;
  using Heap = std::priority_queue<HeapEntry<Ops>, std::vector<HeapEntry<Ops>>,
                                   HeapLess<Ops>>;

  obs::Span cmc_span(options.trace, "opt_cmc");
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
      // Provably infeasible budget; skip the descent.
      if (final_round) {
        return Status::Infeasible(
            "optimized CMC: coverage unreachable even at the all-wildcards "
            "pattern's cost");
      }
      budget *= (1.0 + options.b);
      if (budget >= root_cost) {
        budget = root_cost;
        final_round = true;
      }
      continue;
    }

    obs::Span round_span(options.trace, "opt_cmc.round");
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
    std::size_t epoch = 0;  // bumped on every selection

    PatternSolution round_solution;

    // Lines 11-13: seed with the all-wildcards pattern.
    {
      Candidate<Ops> root;
      root.mben = all_rows;
      root.cost = root_cost;
      root.cost_known = true;
      ++st.patterns_considered;
      ++st.candidates_admitted;
      if (considered_metric != nullptr) considered_metric->Increment();
      if (admitted_metric != nullptr) admitted_metric->Increment();
      candidates.emplace(ops.Root(), std::move(root));
    }
    Heap heap;
    heap.push(HeapEntry<Ops>{n, ops.Root()});

    // Lines 17-35.
    while (!candidates.empty() && total_count <= total_allowance && rem > 0) {
      if (const TripKind trip = ctx.Check(); trip != TripKind::kNone) {
        round_solution.covered = covered.count();
        return interrupted(trip, std::move(round_solution));
      }
      // Line 18: argmax marginal benefit, via the lazy heap.
      if (heap.empty()) break;
      HeapEntry<Ops> top = heap.top();
      heap.pop();
      auto qit = candidates.find(top.key);
      if (qit == candidates.end()) continue;  // candidate was erased
      Candidate<Ops>& cand_ref = qit->second;
      if (cand_ref.epoch != epoch) {
        // Stale coverage: refilter the marginal benefit set lazily.
        auto& m = cand_ref.mben;
        m.erase(std::remove_if(m.begin(), m.end(),
                               [&](RowId r) { return covered.test(r); }),
                m.end());
        cand_ref.epoch = epoch;
        if (m.empty()) {
          candidates.erase(qit);  // lines 28-29
          continue;
        }
      }
      if (cand_ref.mben.size() != top.count) {
        // Stale key; marginal benefit only decreases, so re-queue.
        heap.push(HeapEntry<Ops>{cand_ref.mben.size(), top.key});
        continue;
      }

      const Key q_key = top.key;
      Candidate<Ops> q = std::move(qit->second);
      candidates.erase(qit);  // line 19
      const Pattern q_pattern = ops.ToPattern(q_key);
      if (!q.cost_known) {
        q.cost = cost_fn.Compute(table, index.Ben(q_pattern));
        q.cost_known = true;
      }

      const int level = LevelOf(levels, q.cost);  // line 20 (-1 = over budget)
      bool selected_now = false;
      if (level >= 0) {
        // Line 21: every within-budget pop consumes level allowance,
        // selected or not (the pseudocode's ++count[i] <= ki test).
        std::size_t& cnt = level_count[static_cast<std::size_t>(level)];
        ++cnt;
        ++total_count;
        if (cnt <= levels[static_cast<std::size_t>(level)].capacity) {
          selected_now = true;
        }
      }

      if (selected_now) {
        // Lines 22-29 (candidate refresh happens lazily at pop).
        round_span.Event("pick");
        round_solution.patterns.push_back(q_pattern);
        round_solution.total_cost += q.cost;
        selected.insert(q_key);
        const std::size_t newly = q.mben.size();
        for (RowId r : q.mben) covered.set(r);
        rem = newly >= rem ? 0 : rem - newly;
        ++epoch;
        if (rem == 0) break;
        continue;
      }

      // Lines 30-35: mark visited and expand children whose parents have
      // all been visited.
      visited.insert(q_key);
      auto groups = group_children(q_pattern, q.mben);
      for (auto& group : groups) {
        Key child = ops.Child(q_key, group.attr, group.value);
        if (candidates.count(child) || visited.count(child) ||
            selected.count(child)) {
          continue;
        }
        bool parents_ok = true;
        for (std::size_t a = 0; a < j && parents_ok; ++a) {
          if (a == group.attr || ops.IsWildcard(child, a)) continue;
          if (!visited.count(ops.Parent(child, a))) parents_ok = false;
        }
        if (!parents_ok) continue;
        // Line 35: compute MBen of the admitted child (its cost follows on
        // first pop).
        Candidate<Ops> cand;
        cand.mben = std::move(group.marginal_rows);
        cand.epoch = epoch;
        ++st.patterns_considered;
        ++st.candidates_admitted;
        if (considered_metric != nullptr) considered_metric->Increment();
        if (admitted_metric != nullptr) admitted_metric->Increment();
        const std::size_t count = cand.mben.size();
        candidates.emplace(child, std::move(cand));
        heap.push(HeapEntry<Ops>{count, std::move(child)});
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
          "optimized CMC: coverage unreachable even at the all-wildcards "
          "pattern's cost");
    }
    budget *= (1.0 + options.b);  // line 36
    if (budget >= root_cost) {
      // Clamp the last round at the root's cost so the all-wildcards
      // pattern is always eligible in the final attempt.
      budget = root_cost;
      final_round = true;
    }
  }
  return Status::ResourceExhausted("optimized CMC: max_budget_rounds exceeded");
}

}  // namespace

double LatticeCmcBudgetSeed(const Table& table, std::size_t k) {
  double min_measure = 0.0;
  double min_positive_measure = 0.0;
  for (RowId r = 0; r < table.num_rows(); ++r) {
    const double m = table.measure(r);
    if (r == 0 || m < min_measure) min_measure = m;
    if (m > 0.0 && (min_positive_measure == 0.0 || m < min_positive_measure)) {
      min_positive_measure = m;
    }
  }
  const double budget = static_cast<double>(k) * std::max(min_measure, 0.0);
  if (budget > 0.0) return budget;
  return min_positive_measure > 0.0 ? min_positive_measure : 1.0;
}

RoundFeasibility::RoundFeasibility(const Table& table,
                                   const CostFunction& cost_fn)
    : num_rows_(table.num_rows()) {
  if (cost_fn.kind() != CostKind::kMax) {
    for (RowId r = 0; r < num_rows_; ++r) {
      if (table.measure(r) < 0.0) return;  // bound unavailable
    }
  }
  std::unordered_map<Pattern, std::vector<RowId>, PatternHash> groups;
  for (RowId r = 0; r < num_rows_; ++r) {
    std::vector<ValueId> key(table.num_attributes());
    for (std::size_t a = 0; a < key.size(); ++a) key[a] = table.value(r, a);
    groups[Pattern(std::move(key))].push_back(r);
  }
  thresholds_.reserve(num_rows_);
  for (const auto& [pat, rows] : groups) {
    thresholds_.insert(thresholds_.end(), rows.size(),
                       cost_fn.Compute(table, rows));
  }
  std::sort(thresholds_.begin(), thresholds_.end());
}

std::size_t RoundFeasibility::CoverableRows(double budget) const {
  if (thresholds_.empty()) return num_rows_;
  return static_cast<std::size_t>(
      std::upper_bound(thresholds_.begin(), thresholds_.end(), budget) -
      thresholds_.begin());
}

Result<PatternSolution> RunOptimizedCmc(const Table& table,
                                        const CostFunction& cost_fn,
                                        const CmcOptions& options,
                                        PatternStats* stats) {
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

  PatternStats local_stats;
  PatternStats& st = stats ? *stats : local_stats;
  st = PatternStats{};

  const PatternCodec codec(table);
  if (codec.fits()) {
    return RunOptimizedCmcImpl(table, cost_fn, options, st, PackedOps{&codec});
  }
  return RunOptimizedCmcImpl(table, cost_fn, options, st,
                             GenericOps{table.num_attributes()});
}

}  // namespace pattern
}  // namespace scwsc
