#include "perfbench/src/replay.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <tuple>
#include <utility>

#include "perfbench/src/schedule.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "src/api/delta.h"
#include "src/api/registry.h"
#include "src/serve/json.h"
#include "src/serve/wire.h"

namespace perfbench {

namespace {

using scwsc::Result;
using scwsc::api::InstancePtr;
using scwsc::serve::JsonArray;
using scwsc::serve::JsonObject;
using scwsc::serve::JsonValue;

constexpr const char* kSolvers[] = {"opt-cwsc", "opt-cmc", "hcwsc",
                                    "hcmc",     "cwsc",    "cmc"};
// Delta samples the api.delta metrics need before their tail qualifies.
constexpr std::size_t kDeltaSamples = 100;
constexpr std::int64_t kProbeRequest = -2;

std::string Layer(const std::string& solver) {
  if (solver == "opt-cwsc" || solver == "opt-cmc") return "pattern";
  if (solver == "hcwsc" || solver == "hcmc") return "hierarchy";
  return "core";
}

bool SetBacked(const std::string& solver) {
  return solver == "cwsc" || solver == "cmc";
}

/// The response a solve gets on the wire, built and serialized the way
/// the server does it.
std::string RenderSolve(JsonObject envelope, const std::string& solver,
                        const Result<scwsc::api::SolveResult>& outcome,
                        bool cached) {
  JsonObject result;
  result["label"] = JsonValue("");
  result["solver"] = JsonValue(solver);
  result["from_result_cache"] = JsonValue(cached);
  result["queue_seconds"] = JsonValue(0.0);
  result["run_seconds"] = JsonValue(0.0);
  result["attempts"] = JsonValue(cached ? 0 : 1);
  envelope["ok"] = JsonValue(outcome.ok());
  if (outcome.ok()) {
    result["total_cost"] = JsonValue(outcome->total_cost);
    result["covered"] = JsonValue(outcome->covered);
    result["num_sets"] = JsonValue(outcome->labels.size());
    JsonArray labels;
    for (const std::string& label : outcome->labels) {
      labels.push_back(JsonValue(label));
    }
    result["selection"] = JsonValue(std::move(labels));
  } else {
    envelope["error"] = scwsc::serve::ErrorToJson(
        scwsc::serve::ErrorInfoFromStatus(outcome.status()));
  }
  envelope["result"] = JsonValue(std::move(result));
  return JsonValue(std::move(envelope)).Dump();
}

class Replay {
 public:
  Replay(const WorkloadSpec& spec, const Dataset& dataset, const Plan& plan)
      : spec_(spec), dataset_(dataset), plan_(plan) {}

  ReplayOutput Run(const std::vector<OpRecord>& records, std::uint64_t seed,
                   double seconds, const std::string& span_path);

 private:
  /// Runs `fn` inside a span and returns its seconds.
  double Timed(const std::string& name, int parent, std::int64_t request,
               const std::function<void()>& fn) {
    ScopedSpan span(recorder_, name, parent, request);
    fn();
    return span.seconds();
  }
  void Add(const std::string& metric, double value) {
    samples_[metric].push_back(value);
  }
  bool Has(const std::string& metric) const {
    return samples_.count(metric) != 0;
  }
  void Materialize(const InstancePtr& instance, int parent,
                   std::int64_t request);
  Result<scwsc::api::SolveResult> Solve(const std::string& solver,
                                        const scwsc::api::SolveRequest& request,
                                        int parent, std::int64_t id);
  Result<InstancePtr> ApplyDelta(const InstancePtr& head,
                                 const scwsc::api::SnapshotDelta& delta,
                                 int parent, std::int64_t id);
  void ReplayOp(std::size_t index, InstancePtr& head);
  void Probe(const InstancePtr& root, const scwsc::Table& table,
             std::uint64_t seed);

  const WorkloadSpec& spec_;
  const Dataset& dataset_;
  const Plan& plan_;
  SpanRecorder recorder_;
  std::map<std::string, std::vector<double>> samples_;
  double chained_ = 0.0, shard_total_ = 0.0;
  /// Solves already answered, per (snapshot hash, solver, k, coverage):
  /// what the server's result cache would return.
  std::map<std::tuple<std::uint64_t, std::string, std::size_t, std::uint64_t>,
           Result<scwsc::api::SolveResult>>
      memo_;
};

void Replay::Materialize(const InstancePtr& instance, int parent,
                         std::int64_t request) {
  if (instance->set_system_materialized()) return;
  std::size_t sets = 0;
  const double s = Timed("api.instance.materialize", parent, request, [&] {
    const auto system = instance->set_system();
    if (system.ok()) sets = (*system)->num_sets();
  });
  Add("api.instance.materialize_s", s);
  if (!Has("api.instance.sets_materialized")) {
    Add("api.instance.sets_materialized", static_cast<double>(sets));
  }
}

Result<scwsc::api::SolveResult> Replay::Solve(
    const std::string& solver, const scwsc::api::SolveRequest& request,
    int parent, std::int64_t id) {
  if (SetBacked(solver)) Materialize(request.instance, parent, id);
  Result<scwsc::api::SolveResult> result =
      scwsc::Status::Internal("not run");
  const std::string metric = Layer(solver) + "." + solver;
  Add(metric + ".solve_s", Timed("solve/" + solver, parent, id, [&] {
        result = scwsc::api::SolverRegistry::Global().Solve(solver, request);
      }));
  if (result.ok()) {
    Add(metric + ".sets_considered",
        static_cast<double>(result->counters.sets_considered));
  }
  return result;
}

Result<InstancePtr> Replay::ApplyDelta(const InstancePtr& head,
                                       const scwsc::api::SnapshotDelta& delta,
                                       int parent, std::int64_t id) {
  Result<scwsc::api::AppliedDelta> applied = scwsc::Status::Internal("not run");
  Add("api.delta.apply_ms",
      1e3 * Timed("api.delta.apply", parent, id,
                  [&] { applied = scwsc::api::ApplyDelta(head, delta); }));
  if (!applied.ok()) return applied.status();
  chained_ += static_cast<double>(applied->stats.shards_chained);
  shard_total_ += static_cast<double>(applied->stats.shards_total);
  return applied->snapshot;
}

void Replay::ReplayOp(std::size_t index, InstancePtr& head) {
  const Op& op = plan_.ops[index];
  const auto id = static_cast<std::int64_t>(index);
  ScopedSpan root(recorder_, "request", -1, id);
  const std::string line = op.line.substr(0, op.line.size() - 1);

  Result<JsonValue> parsed = scwsc::Status::Internal("not parsed");
  Result<scwsc::serve::ParsedJob> job = scwsc::Status::Internal("not parsed");
  Result<scwsc::api::SnapshotDelta> delta = scwsc::Status::Internal("not parsed");
  const double parse_s = Timed("serve.wire.parse", root.index(), id, [&] {
    parsed = scwsc::serve::ParseJson(line);
    if (!parsed.ok()) return;
    const auto version = scwsc::serve::CheckWireVersion(*parsed, "socket");
    if (!version.ok()) return;
    if (op.kind == OpKind::kSolve) {
      job = scwsc::serve::ParseJobObject(*parsed, head, "request", *version);
    } else if (op.kind == OpKind::kDelta) {
      delta = scwsc::serve::ParseDeltaObject(*parsed, "request");
    }
  });
  JsonObject envelope;
  envelope["version"] = JsonValue(scwsc::serve::kWireVersion);
  envelope["id"] = JsonValue("r" + std::to_string(index));

  std::string bytes;  // the serialized response: rendering it is the work
  switch (op.kind) {
    case OpKind::kPing: {
      JsonObject pong;
      pong["pong"] = JsonValue(true);
      Timed("serve.wire.render", root.index(), id, [&] {
        envelope["ok"] = JsonValue(true);
        envelope["result"] = JsonValue(std::move(pong));
        bytes = JsonValue(std::move(envelope)).Dump();
      });
      return;
    }
    case OpKind::kSolve: {
      if (!job.ok()) return;
      Add("serve.wire.parse_us", 1e6 * parse_s);
      const scwsc::api::SolveRequest& request = job->job.request;
      const auto key = std::make_tuple(
          head->content_hash(), job->job.solver, request.k,
          std::bit_cast<std::uint64_t>(request.coverage_fraction));
      auto it = memo_.find(key);
      const bool cached = it != memo_.end();
      if (!cached) {
        it = memo_.emplace(key, Solve(job->job.solver, request, root.index(), id))
                 .first;
      }
      Add("serve.wire.render_us",
          1e6 * Timed("serve.wire.render", root.index(), id, [&] {
            bytes = RenderSolve(std::move(envelope), job->job.solver,
                                it->second, cached);
          }));
      return;
    }
    case OpKind::kDelta: {
      if (!delta.ok()) return;
      auto child = ApplyDelta(head, *delta, root.index(), id);
      if (!child.ok()) return;
      head = *child;
      return;
    }
  }
}

void Replay::Probe(const InstancePtr& root, const scwsc::Table& table,
                   std::uint64_t seed) {
  ScopedSpan probe(recorder_, "probe", -1, kProbeRequest);
  const SolveKey& first = plan_.keys.front();
  InstancePtr hierarchical = root->has_hierarchy() ? root : nullptr;
  InstancePtr flat = root->has_hierarchy() ? nullptr : root;
  const auto build = [&](bool with_hierarchy) {
    InstancePtr built;
    Timed("probe.build", probe.index(), kProbeRequest, [&] {
      auto snapshot = BuildSnapshot(spec_, table, with_hierarchy);
      if (snapshot.ok()) built = *snapshot;
    });
    return built;
  };
  for (const std::string solver : kSolvers) {
    if (Has(Layer(solver) + "." + solver + ".solve_s")) continue;
    const bool needs_hierarchy = Layer(solver) == "hierarchy";
    InstancePtr& instance = needs_hierarchy ? hierarchical : flat;
    if (instance == nullptr) instance = build(needs_hierarchy);
    if (instance == nullptr) continue;
    auto request = scwsc::api::SolveRequest::Builder(instance)
                       .WithK(first.k)
                       .WithCoverage(first.coverage)
                       .Build();
    if (request.ok()) Solve(solver, *request, probe.index(), kProbeRequest);
  }
  // Row-preserving deltas on a hierarchy-free copy until the delta metrics
  // have enough samples for a tail.
  if (flat == nullptr) flat = build(false);
  Rng rng(seed ^ 0xde17aULL);
  while (flat != nullptr && samples_["api.delta.apply_ms"].size() < kDeltaSamples) {
    DeltaOp op = RandomDelta(rng, dataset_.rows);
    scwsc::api::SnapshotDelta delta;
    delta.retract_rows.push_back(op.retract);
    delta.append_rows.push_back({std::move(op.append.values), op.append.measure});
    auto child = ApplyDelta(flat, delta, probe.index(), kProbeRequest);
    if (!child.ok()) break;
    flat = *child;
  }
}

ReplayOutput Replay::Run(const std::vector<OpRecord>& records,
                         std::uint64_t seed, double seconds,
                         const std::string& span_path) {
  ReplayOutput out;
  const double start = NowSeconds();
  Result<scwsc::Table> table = scwsc::Status::Internal("not read");
  for (int i = 0; i < 3; ++i) {
    Add("table.csv_read_s", Timed("table.csv_read", -1, -1,
                                  [&] { table = ReadTable(dataset_); }));
  }
  if (!table.ok()) {
    out.error = "csv read: " + table.status().ToString();
    return out;
  }
  Result<InstancePtr> root = scwsc::Status::Internal("not built");
  for (int i = 0; i < 3; ++i) {
    Add("api.instance.build_s", Timed("api.instance.build", -1, -1, [&] {
          root = BuildSnapshot(spec_, *table, spec_.hierarchy);
        }));
  }
  if (!root.ok()) {
    out.error = "snapshot build: " + root.status().ToString();
    return out;
  }
  Materialize(*root, -1, -1);

  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].sent) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return records[a].sent_s < records[b].sent_s;
                   });
  // Warm-up ops were sent before the run's clock started; keep them first.
  std::stable_partition(order.begin(), order.end(), [&](std::size_t i) {
    return plan_.ops[i].phase == Phase::kWarmup;
  });
  InstancePtr head = *root;
  for (const std::size_t i : order) {
    if (NowSeconds() - start > seconds) break;
    ReplayOp(i, head);
    ++out.requests;
  }
  Probe(*root, *table, seed);
  const double wall = NowSeconds() - start;

  // Tracing overhead: the cost of one span, measured here, times the spans
  // the replay recorded, over the replay's wall time.
  SpanRecorder calibration;
  constexpr int kCalibrationSpans = 20000;
  const double cal_start = NowSeconds();
  for (int i = 0; i < kCalibrationSpans; ++i) {
    ScopedSpan span(calibration, "calibration", -1, i);
  }
  const double per_span = (NowSeconds() - cal_start) / kCalibrationSpans;
  out.spans = recorder_.spans().size();
  out.metrics["trace.overhead_pct"] =
      100.0 * per_span * static_cast<double>(out.spans) / wall;

  for (const auto& [name, values] : samples_) {
    out.samples[name] = values.size();
    if (name == "api.delta.apply_ms") {
      out.metrics["api.delta.apply_p50_ms"] = Median(values);
      out.metrics["api.delta.apply_tail_ms"] = SelectTail(values).value;
      out.samples["api.delta.apply_p50_ms"] = values.size();
      out.samples["api.delta.apply_tail_ms"] = values.size();
    } else {
      out.metrics[name] = Median(values);
    }
  }
  out.metrics.erase("api.delta.apply_ms");
  out.samples.erase("api.delta.apply_ms");
  out.metrics["api.delta.shards_chained_ratio"] =
      shard_total_ > 0 ? chained_ / shard_total_ : 0.0;
  if (!recorder_.WriteChromeTrace(span_path)) {
    out.error = "cannot write " + span_path;
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace

ReplayOutput RunTracedReplay(const WorkloadSpec& spec, const Dataset& dataset,
                             const Plan& plan,
                             const std::vector<OpRecord>& records,
                             std::uint64_t seed, double seconds,
                             const std::string& span_path) {
  return Replay(spec, dataset, plan).Run(records, seed, seconds, span_path);
}

}  // namespace perfbench
