#include "perfbench/src/workloads.h"

#include <algorithm>
#include <utility>

#include "perfbench/src/schedule.h"
#include "src/serve/json.h"

namespace perfbench {

namespace {

using scwsc::serve::JsonArray;
using scwsc::serve::JsonObject;
using scwsc::serve::JsonValue;

// Connection roles. The ping connection never carries anything else.
constexpr int kPingConn = 3;

// hot_cache: cached solves spread over three connections. The nominal
// rate leaves the server mostly idle, so a request's latency is the
// server's own reaction time; the ladder then offers far more.
constexpr double kHotRate = 30.0;  // nominal solves/s
constexpr double kHotLadder[] = {200.0, 800.0, 3200.0};  // solves/s
constexpr double kHotMeasuredShare = 0.85;  // of the run; the ladder follows
constexpr double kHotPingRate = 20.0;

constexpr double kColdPingRate = 100.0;

// live_delta: one delta connection, two solve connections. Pings are
// frequent so their p99 shows the stalls deltas cause.
// opt-cwsc is three quarters of the solves, so the median solve falls
// inside its latencies rather than on the edge between the two solvers'.
// Several percent of the solves are pipelined behind another and wait
// about 40 ms for the client's delayed ACK (the server leaves Nagle on).
// At 25 solves/s that share (4-6%) sat on the tail's percentile and the
// tail moved by a third between seeds; at 50 solves/s it is 7-10%, and
// the 1,000 samples give each of the 5 windows a p95 inside that mode.
constexpr double kDeltaRate = 16.0;       // deltas/s
constexpr double kLiveSolveRates[] = {38.0, 12.0};  // opt-cwsc, cwsc
constexpr double kLivePingRate = 250.0;

const char* const kAllSolvers[] = {"opt-cwsc", "opt-cmc", "hcwsc",
                                   "hcmc",     "cwsc",    "cmc"};

JsonObject Envelope(const char* type, std::size_t index) {
  JsonObject o;
  o["version"] = JsonValue(2);
  o["id"] = JsonValue("r" + std::to_string(index));
  o["type"] = JsonValue(type);
  return o;
}

std::string RenderRequest(const Plan& plan, const Op& op, std::size_t index) {
  JsonObject o;
  switch (op.kind) {
    case OpKind::kPing:
      o = Envelope("ping", index);
      break;
    case OpKind::kSolve: {
      const SolveKey& key = plan.keys[static_cast<std::size_t>(op.key)];
      o = Envelope("solve", index);
      o["snapshot"] = JsonValue("live");
      o["solver"] = JsonValue(key.solver);
      o["k"] = JsonValue(key.k);
      o["coverage"] = JsonValue(key.coverage);
      break;
    }
    case OpKind::kDelta: {
      const DeltaOp& delta = plan.deltas[static_cast<std::size_t>(op.delta)];
      o = Envelope("delta", index);
      o["snapshot"] = JsonValue("live");
      o["retract_rows"] = JsonValue(JsonArray{JsonValue(delta.retract)});
      JsonArray values;
      for (const std::string& v : delta.append.values) {
        values.push_back(JsonValue(v));
      }
      JsonObject row;
      row["values"] = JsonValue(std::move(values));
      row["measure"] = JsonValue(delta.append.measure);
      o["append_rows"] = JsonValue(JsonArray{JsonValue(std::move(row))});
      break;
    }
  }
  return JsonValue(std::move(o)).Dump() + "\n";
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

Op OpenOp(OpKind kind, int conn, double due, int key = -1) {
  Op op;
  op.kind = kind;
  op.conn = conn;
  op.due_s = due;
  op.key = key;
  return op;
}

void AddPings(std::vector<Op>& open, std::uint64_t seed, double rate,
              double duration) {
  for (const double t : PoissonArrivals(seed, rate, 0.0, duration)) {
    open.push_back(OpenOp(OpKind::kPing, kPingConn, t));
  }
}

void MakeHotCache(Plan& plan, Rng& rng, double seconds,
                  std::vector<Op>& warmup, std::vector<Op>& open) {
  for (const char* solver : kAllSolvers) {
    plan.keys.push_back({solver, 4, 0.3});
    plan.keys.push_back({solver, 8, 0.5});
  }
  for (std::size_t i = 0; i < plan.keys.size(); ++i) {
    Op op = OpenOp(OpKind::kSolve, static_cast<int>(i % 3), -1.0,
                   static_cast<int>(i));
    op.phase = Phase::kWarmup;
    warmup.push_back(std::move(op));
  }
  plan.nominal_rate = kHotRate;
  plan.measured_s = kHotMeasuredShare * seconds;
  const double step_s =
      (seconds - plan.measured_s) / static_cast<double>(std::size(kHotLadder));
  const auto add_solves = [&](double rate, double start, double duration,
                              Phase phase, int step) {
    for (const double t : PoissonArrivals(rng.Next(), rate, start, duration)) {
      Op op = OpenOp(OpKind::kSolve, static_cast<int>(rng.Below(3)), t,
                     static_cast<int>(rng.Below(plan.keys.size())));
      op.phase = phase;
      op.ladder_step = step;
      open.push_back(std::move(op));
    }
  };
  add_solves(kHotRate, 0.0, plan.measured_s, Phase::kMeasured, -1);
  for (std::size_t step = 0; step < std::size(kHotLadder); ++step) {
    const double rate = kHotLadder[step];
    plan.ladder_rates.push_back(rate);
    add_solves(rate,
               plan.measured_s + static_cast<double>(step) * step_s, step_s,
               Phase::kLadder, static_cast<int>(step));
  }
  AddPings(open, rng.Next(), kHotPingRate, seconds);
}

void MakeColdSolve(Plan& plan, Rng& rng, double seconds,
                   std::vector<Op>& open, std::vector<Op>& closed) {
  // Every prefix of the sequence asks for nearly the same mix, so runs of
  // different seeds measure the same work: each round asks every solver
  // once (in a seeded order), and each solver walks its own seeded cycle
  // through the (k, coverage) grid. Coverage gets a small offset per cycle
  // so no request repeats and the result cache never hits.
  // Six cells, so a run completes several whole cycles per solver and the
  // mix it measures hardly depends on where the seed starts the cycle.
  constexpr std::size_t kGridK[] = {4, 8};
  constexpr std::size_t kGridCoverages = 3;  // 0.30, 0.45, 0.60
  std::vector<std::size_t> grid(std::size(kGridK) * kGridCoverages);
  std::vector<std::vector<std::size_t>> cycles;
  for (std::size_t s = 0; s < std::size(kAllSolvers); ++s) {
    for (std::size_t i = 0; i < grid.size(); ++i) grid[i] = i;
    Shuffle(grid, rng);
    cycles.push_back(grid);
  }
  const std::size_t rounds = 64 + static_cast<std::size_t>(seconds * 8);
  std::vector<std::size_t> order(std::size(kAllSolvers));
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Shuffle(order, rng);
    for (const std::size_t s : order) {
      const std::size_t cell = cycles[s][round % grid.size()];
      const double coverage =
          0.30 + 0.15 * static_cast<double>(cell % kGridCoverages) +
          1e-4 * static_cast<double>(round / grid.size());
      plan.keys.push_back({kAllSolvers[s], kGridK[cell / kGridCoverages],
                           coverage});
      closed.push_back(OpenOp(OpKind::kSolve, 0, -1.0,
                              static_cast<int>(plan.keys.size() - 1)));
    }
  }
  plan.measured_s = seconds;
  AddPings(open, rng.Next(), kColdPingRate, seconds);
}

void MakeLiveDelta(Plan& plan, Rng& rng, double seconds,
                   const std::vector<Row>& rows, std::vector<Op>& open) {
  // Twelve keys per solver, so a run averages over many solution shapes
  // and repeats a key on one version rarely (a low result-cache hit ratio).
  // Each connection walks seeded permutations of its keys, so every run
  // asks for the same mix.
  const char* const solvers[] = {"opt-cwsc", "cwsc"};
  constexpr std::size_t kKeysPerSolver = 12;
  for (const char* solver : solvers) {
    for (std::size_t i = 0; i < kKeysPerSolver; ++i) {
      plan.keys.push_back({solver, 4 + 2 * (i % 3), 0.3 + 0.1 * static_cast<double>(i / 3)});
    }
  }
  plan.measured_s = seconds;
  plan.nominal_rate = kLiveSolveRates[0] + kLiveSolveRates[1];
  // Each odd delta undoes the one before it (retracts the row it appended,
  // appends back the row it retracted), so the table never drifts more
  // than one row from the generated one. The measure is heavy-tailed, and
  // under drifting deltas one seed's table made opt-cwsc twice as cheap
  // as another's for the rest of the run.
  std::vector<Row> table = rows;  // as the server holds it
  Row undo;                       // the row the last even delta retracted
  for (const double t : FixedArrivals(kDeltaRate, 0.0, seconds)) {
    DeltaOp delta;
    if (plan.deltas.size() % 2 == 0) {
      delta = RandomDelta(rng, table);
      undo = table[delta.retract];
    } else {
      delta.retract = table.size() - 1;
      delta.append = undo;
    }
    table.erase(table.begin() + static_cast<std::ptrdiff_t>(delta.retract));
    table.push_back(delta.append);
    plan.deltas.push_back(std::move(delta));
    Op op = OpenOp(OpKind::kDelta, 0, t);
    op.delta = static_cast<int>(plan.deltas.size() - 1);
    open.push_back(std::move(op));
  }
  // Connection 1 solves with opt-cwsc, connection 2 with cwsc.
  for (std::size_t s = 0; s < std::size(solvers); ++s) {
    std::vector<std::size_t> cycle(kKeysPerSolver);
    std::size_t next = cycle.size();
    for (const double t :
         PoissonArrivals(rng.Next(), kLiveSolveRates[s], 0.0, seconds)) {
      if (next == cycle.size()) {
        for (std::size_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
        Shuffle(cycle, rng);
        next = 0;
      }
      const auto key = static_cast<int>(kKeysPerSolver * s + cycle[next++]);
      open.push_back(OpenOp(OpKind::kSolve, static_cast<int>(s) + 1, t, key));
    }
  }
  AddPings(open, rng.Next(), kLivePingRate, seconds);
}

}  // namespace

DeltaOp RandomDelta(Rng& rng, const std::vector<Row>& rows) {
  DeltaOp delta;
  delta.retract = rng.Below(rows.size());
  delta.append.values = rows[rng.Below(rows.size())].values;
  delta.append.measure = rows[rng.Below(rows.size())].measure;
  return delta;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"hot_cache", 1500, 2015, {}, true, 2, 1},
      {"cold_solve", 2000, 2015, {}, true, 2, 1},
      // protocol, endstate, flags: cheap enough to re-enumerate per version.
      {"live_delta", 8192, 2015, {0, 3, 4}, false, 2, 4},
  };
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Plan MakePlan(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
              const std::vector<Row>& rows) {
  Plan plan;
  Rng rng(seed ^ 0x5eedf00dULL);
  std::vector<Op> warmup, open, closed;
  if (spec.name == "hot_cache") {
    MakeHotCache(plan, rng, seconds, warmup, open);
  } else if (spec.name == "cold_solve") {
    MakeColdSolve(plan, rng, seconds, open, closed);
  } else {
    MakeLiveDelta(plan, rng, seconds, rows, open);
  }
  std::stable_sort(open.begin(), open.end(), [](const Op& a, const Op& b) {
    return a.due_s < b.due_s;
  });
  plan.first_open = warmup.size();
  plan.first_closed = warmup.size() + open.size();
  for (auto* part : {&warmup, &open, &closed}) {
    for (Op& op : *part) plan.ops.push_back(std::move(op));
  }
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    plan.ops[i].line = RenderRequest(plan, plan.ops[i], i);
  }
  return plan;
}

}  // namespace perfbench
