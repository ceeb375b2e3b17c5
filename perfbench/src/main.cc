// perfbench_driver — one run of one workload against `scwsc_cli --serve`.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --cli PATH --work DIR [--latency-limit-ms X]
//                    [--describe D]
//
// Generates the workload's trace CSV and request plan from the seed,
// starts the server child several times (set-up is timed each time, the
// median reported), drives the last one for S seconds, shuts it down with
// SIGINT and collects its rusage, then checks every response against
// serial reference solves. With --trace 1 it also replays the stream
// in-process with spans (replay.h) and reports the per-layer metrics
// instead of the end-to-end ones. The last stdout line is the result
// object; a record with sample counts and diagnostics goes to
// DIR/records/. Exits 1 on a mismatch, a failed request or a server
// crash, 2 on bad usage or a failed set-up.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/check.h"
#include "perfbench/src/loadgen.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/stack.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workloads.h"
#include "src/serve/json.h"

namespace perfbench {
namespace {

using scwsc::serve::JsonArray;
using scwsc::serve::JsonObject;
using scwsc::serve::JsonValue;

constexpr int kConnections = 4;
constexpr int kSetups = 9;             // server starts per run; median kept
constexpr double kStartTimeout = 120;  // seconds to wait for the port line
constexpr double kWarmupTimeout = 60;
constexpr double kDrainSeconds = 20;   // wait for stragglers after sending
constexpr double kShutdownGrace = 10;
constexpr unsigned kCheckThreads = 3;

struct Args {
  std::string workload, cli, work, describe = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0, latency_limit_ms = 50;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return false;
  const auto get = [&](const char* name, std::string* out) {
    const auto it = flags.find(name);
    if (it == flags.end()) return false;
    *out = it->second;
    return true;
  };
  std::string seed, seconds, trace, limit;
  if (!get("--workload", &args->workload) || !get("--seed", &seed) ||
      !get("--seconds", &seconds) || !get("--trace", &trace) ||
      !get("--cli", &args->cli) || !get("--work", &args->work)) {
    return false;
  }
  get("--describe", &args->describe);
  if (get("--latency-limit-ms", &limit)) args->latency_limit_ms = std::atof(limit.c_str());
  args->seed = std::strtoull(seed.c_str(), nullptr, 10);
  args->seconds = std::atof(seconds.c_str());
  args->trace = trace == "0" ? 0 : trace == "1" ? 1 : -1;
  return args->seconds > 0 && args->trace >= 0 && args->latency_limit_ms > 0;
}

/// One reported metric with the counts behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  // e.g. "p99, 18 beyond"
};

std::string UnitOf(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ms") || ends("_ms_per_op")) return "ms";
  if (ends("_us")) return "us";
  if (ends("_s")) return "s";
  if (ends("_mb")) return "MB";
  if (ends("_pct")) return "%";
  if (ends("_ratio")) return "ratio";
  if (ends("per_s") || ends("_rps")) return "1/s";
  return "count";
}

Metric MedianOf(const std::vector<double>& values, const char* unit) {
  return {Median(values), unit, values.size(), "p50"};
}

/// `values` in time order.
Metric TailOf(const std::vector<double>& values, const char* unit) {
  std::size_t windows = 0;
  const Tail tail = WindowedTail(values, &windows);
  char note[96];
  std::snprintf(note, sizeof(note), "p%g of %zu windows, %zu beyond%s",
                tail.percentile * 100, windows, tail.beyond,
                tail.qualified ? "" : ", under-sampled");
  return {tail.value, unit, values.size(), note};
}

JsonValue MetricsJson(const std::map<std::string, Metric>& metrics,
                      bool with_counts) {
  JsonObject out;
  for (const auto& [name, m] : metrics) {
    JsonObject o;
    o["value"] = JsonValue(m.value);
    o["unit"] = JsonValue(m.unit);
    if (with_counts) {
      o["samples"] = JsonValue(m.samples);
      o["note"] = JsonValue(m.note);
    }
    out[name] = JsonValue(std::move(o));
  }
  return JsonValue(std::move(out));
}

/// Latency samples of the wire run, split the way the metrics need them.
struct WireSamples {
  std::vector<double> solve_ms, ping_ms, delta_ms, rtt_gap_ms, queue_ms,
      run_ms, lag_ms;
  std::size_t solves = 0, cache_hits = 0;
  std::size_t completed = 0;  // answered by the end of the measured phase
  double last_solve_s = 0.0;
  std::vector<std::vector<double>> ladder_ms;
  std::vector<std::size_t> ladder_failed;
};

/// `measured_end_s`: when the measured phase ended, on the run's clock.
WireSamples Collect(const Plan& plan, const std::vector<OpRecord>& records,
                    const std::vector<Response>& responses,
                    double measured_end_s) {
  WireSamples w;
  w.ladder_ms.resize(plan.ladder_rates.size());
  w.ladder_failed.resize(plan.ladder_rates.size());
  for (std::size_t i = plan.first_open; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    const OpRecord& r = records[i];
    if (!r.sent) continue;
    if (op.due_s >= 0) w.lag_ms.push_back(1e3 * (r.sent_s - r.due_s));
    const bool good = r.answered && responses[i].ok;
    if (op.phase == Phase::kLadder) {
      auto& step = w.ladder_ms[static_cast<std::size_t>(op.ladder_step)];
      if (good) step.push_back(1e3 * (r.recv_s - r.due_s));
      else ++w.ladder_failed[static_cast<std::size_t>(op.ladder_step)];
    }
    if (!good) continue;
    if (r.recv_s <= measured_end_s) ++w.completed;
    const double latency_ms = 1e3 * (r.recv_s - r.due_s);
    // Only the measured phase feeds the end-to-end figures.
    if (op.phase != Phase::kMeasured || r.due_s >= plan.measured_s) continue;
    switch (op.kind) {
      case OpKind::kPing:
        // From when the ping was written: the ping connection measures the
        // server's responsiveness, and the generator's own lateness is
        // reported apart as generator_lag_ms.
        w.ping_ms.push_back(1e3 * (r.recv_s - r.sent_s));
        break;
      case OpKind::kDelta:
        w.delta_ms.push_back(latency_ms);
        break;
      case OpKind::kSolve: {
        const Response& resp = responses[i];
        w.solve_ms.push_back(latency_ms);
        ++w.solves;
        w.cache_hits += resp.from_cache ? 1 : 0;
        w.queue_ms.push_back(1e3 * resp.queue_s);
        w.run_ms.push_back(1e3 * resp.run_s);
        w.rtt_gap_ms.push_back(1e3 * (r.recv_s - r.sent_s) -
                               1e3 * (resp.queue_s + resp.run_s));
        w.last_solve_s = std::max(w.last_solve_s, r.recv_s);
        break;
      }
    }
  }
  return w;
}

/// The highest rate, nominal first and then up the ladder, whose solves
/// all succeeded with a tail latency within the limit.
double MaxRate(const Plan& plan, const WireSamples& w, double limit_ms,
               JsonArray* steps) {
  double best = 0.0;
  bool climbing = !w.solve_ms.empty() && SelectTail(w.solve_ms).value <= limit_ms;
  if (climbing) best = plan.nominal_rate;
  for (std::size_t s = 0; s < plan.ladder_rates.size(); ++s) {
    const Tail tail = SelectTail(w.ladder_ms[s]);
    const bool pass = !w.ladder_ms[s].empty() && w.ladder_failed[s] == 0 &&
                      tail.value <= limit_ms;
    JsonObject step;
    step["rate_rps"] = JsonValue(plan.ladder_rates[s]);
    step["p50_ms"] = JsonValue(Median(w.ladder_ms[s]));
    step["tail_ms"] = JsonValue(tail.value);
    step["tail_percentile"] = JsonValue(tail.percentile);
    step["samples"] = JsonValue(w.ladder_ms[s].size());
    step["failed"] = JsonValue(w.ladder_failed[s]);
    step["meets_limit"] = JsonValue(pass);
    steps->push_back(JsonValue(std::move(step)));
    climbing = climbing && pass;
    if (climbing) best = plan.ladder_rates[s];
  }
  return best;
}

/// Every op of the run, one line each, for looking behind the figures.
void WriteOpsCsv(const Plan& plan, const std::vector<OpRecord>& records,
                 const std::vector<Response>& responses,
                 const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  static const char* const kKinds[] = {"solve", "ping", "delta"};
  static const char* const kPhases[] = {"warmup", "measured", "ladder"};
  std::fprintf(out, "id,kind,phase,conn,solver,due_s,sent_s,recv_s,ok,"
                    "from_cache,queue_ms,run_ms\n");
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    const OpRecord& r = records[i];
    if (!r.sent) continue;
    const Response& resp = responses[i];
    std::fprintf(out, "r%zu,%s,%s,%d,%s,%.6f,%.6f,%.6f,%d,%d,%.4f,%.4f\n", i,
                 kKinds[static_cast<int>(op.kind)],
                 kPhases[static_cast<int>(op.phase)], op.conn,
                 op.key >= 0 ? plan.keys[static_cast<std::size_t>(op.key)].solver.c_str() : "",
                 r.due_s, r.sent_s, r.answered ? r.recv_s : -1.0,
                 resp.ok ? 1 : 0, resp.from_cache ? 1 : 0, 1e3 * resp.queue_s,
                 1e3 * resp.run_s);
  }
  std::fclose(out);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  namespace fs = std::filesystem;
  const std::string tag =
      args.workload + "-seed" + std::to_string(args.seed);
  fs::create_directories(fs::path(args.work) / "records");
  fs::create_directories(fs::path(args.work) / "spans");
  const auto dataset = GenerateDataset(
      *spec, (fs::path(args.work) / (tag + ".csv")).string());
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset: %s\n", dataset.status().ToString().c_str());
    return 2;
  }
  const Plan plan = MakePlan(*spec, args.seed, args.seconds, dataset->rows);
  const std::string log = (fs::path(args.work) / (tag + ".server.log")).string();

  // Set-up and the wire run run at real-time priority where the system
  // allows it, so other load on the machine does not set the figures; the
  // checks and the traced replay after them run at normal priority.
  const bool realtime = SetRealtime(true);

  // Set-up, several times: spawn until accepting, plus the warm-up.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<LoadGenerator> client;
  std::vector<OpRecord> records;
  for (int rep = 0; rep < kSetups; ++rep) {
    client.reset();
    if (server != nullptr) server->Shutdown(kShutdownGrace);
    records.assign(plan.ops.size(), OpRecord{});
    const double t0 = NowSeconds();
    server = std::make_unique<ServerProcess>();
    client = std::make_unique<LoadGenerator>();
    std::string error;
    if (!server->Start(ServerArgs(args.cli, *spec, *dataset), log,
                       kStartTimeout, &error) ||
        !client->Connect(server->port(), kConnections, &error)) {
      std::fprintf(stderr, "set-up: %s\n", error.c_str());
      return 2;
    }
    if (!client->RunBatch(plan, 0, plan.first_open, kWarmupTimeout, records)) {
      std::fprintf(stderr, "set-up: warm-up did not complete\n");
      return 2;
    }
    setup_s.push_back(NowSeconds() - t0);
  }

  // CPU is read at both ends of the measured phase, so hot_cache's rate
  // ladder, which follows it, does not count.
  const double cpu_before = server->CpuSecondsSoFar();
  double cpu_measured = 0.0, measured_end_s = 0.0;
  client->Run(plan, args.seconds, kDrainSeconds, plan.measured_s,
              [&](double now) {
                cpu_measured = server->CpuSecondsSoFar() - cpu_before;
                measured_end_s = now;
              },
              records);
  client.reset();
  const ServerProcess::Exit exit = server->Shutdown(kShutdownGrace);
  if (realtime) SetRealtime(false);

  const std::vector<Response> responses = DecodeResponses(records);
  CheckResult check =
      CheckRun(*spec, *dataset, plan, records, responses, kCheckThreads);
  if (!exit.clean) {
    check.problems.push_back(exit.hung ? "server hung on shutdown"
                                       : "server exited uncleanly, status " +
                                             std::to_string(exit.status));
  }
  const bool correct =
      check.mismatches == 0 && check.failed == 0 && exit.clean;
  std::size_t attempted = 0;
  for (const OpRecord& r : records) attempted += r.sent ? 1 : 0;
  const std::size_t failed = check.failed + check.mismatches;

  const WireSamples w = Collect(plan, records, responses, measured_end_s);
  JsonArray ladder;
  const double max_rate = MaxRate(plan, w, args.latency_limit_ms, &ladder);

  std::map<std::string, Metric> end_to_end, per_layer, diagnostics;
  end_to_end["setup_s"] = MedianOf(setup_s, "s");
  end_to_end["solve_p50_ms"] = MedianOf(w.solve_ms, "ms");
  end_to_end["solve_tail_ms"] = TailOf(w.solve_ms, "ms");

  end_to_end["solves_per_s"] = {
      w.last_solve_s > 0 ? static_cast<double>(w.solves) / w.last_solve_s : 0.0,
      "1/s", w.solves, "completed solves over the measured phase"};
  end_to_end["peak_rss_mb"] = {exit.peak_rss_mb, "MB", 1, "wait4 ru_maxrss"};
  end_to_end["server_cpu_ms_per_op"] = {
      w.completed > 0 ? 1e3 * cpu_measured / static_cast<double>(w.completed)
                      : 0.0,
      "ms", w.completed, "user+system CPU of the measured phase, per request"};

  diagnostics["delta_p50_ms"] = MedianOf(w.delta_ms, "ms");
  diagnostics["delta_tail_ms"] = TailOf(w.delta_ms, "ms");
  diagnostics["ping_p50_ms"] = MedianOf(w.ping_ms, "ms");
  diagnostics["ping_tail_ms"] = TailOf(w.ping_ms, "ms");
  diagnostics["max_rate_rps"] = {max_rate, "1/s", plan.ladder_rates.size() + 1,
                                 "limit " + std::to_string(args.latency_limit_ms) + " ms"};
  diagnostics["error_frac"] = {
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 0.0,
      "ratio", attempted, "failed or mismatched over attempted"};
  diagnostics["generator_lag_ms"] = TailOf(w.lag_ms, "ms");
  diagnostics["server_cpu_s"] = {exit.cpu_s, "s", 1,
                                 "wait4 user+system, whole lifetime"};

  ReplayOutput replay;
  if (args.trace == 1) {
    per_layer["serve.scheduler.queue_p50_ms"] = MedianOf(w.queue_ms, "ms");
    per_layer["serve.scheduler.run_p50_ms"] = MedianOf(w.run_ms, "ms");
    per_layer["serve.cache.result_hit_ratio"] = {
        w.solves > 0 ? static_cast<double>(w.cache_hits) /
                           static_cast<double>(w.solves)
                     : 0.0,
        "ratio", w.solves, ""};
    per_layer["serve.server.gap_p50_ms"] = MedianOf(w.rtt_gap_ms, "ms");
    per_layer["serve.server.gap_tail_ms"] = TailOf(w.rtt_gap_ms, "ms");
    per_layer["loadgen.generator_lag_ms"] = diagnostics["generator_lag_ms"];
    replay = RunTracedReplay(
        *spec, *dataset, plan, records, args.seed, args.seconds,
        (fs::path(args.work) / "spans" / (tag + ".trace.json")).string());
    if (!replay.ok) {
      std::fprintf(stderr, "traced replay: %s\n", replay.error.c_str());
      return 2;
    }
    for (const auto& [name, value] : replay.metrics) {
      const auto n = replay.samples.find(name);
      per_layer[name] = {value, UnitOf(name),
                         n == replay.samples.end() ? 1 : n->second, "replay"};
    }
  }
  const auto& reported = args.trace == 1 ? per_layer : end_to_end;

  // Human-readable summary, then the record, then the result line.
  std::printf("# %s seed %llu: %zu attempted, %zu failed, %zu mismatches, "
              "%zu versions checked, %s priority\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              attempted, check.failed, check.mismatches, check.versions,
              realtime ? "real-time" : "normal");
  for (const std::string& p : check.problems) std::printf("#   %s\n", p.c_str());
  const std::map<std::string, Metric>* groups[] = {&reported, &diagnostics};
  for (const auto* group : groups) {
    for (const auto& [name, m] : *group) {
      std::printf("# %-34s %14.6g %-6s n=%-6zu %s\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.note.c_str());
    }
  }

  JsonObject record;
  record["workload"] = JsonValue(args.workload);
  record["seed"] = JsonValue(static_cast<double>(args.seed));
  record["seconds"] = JsonValue(args.seconds);
  record["trace"] = JsonValue(args.trace);
  record["rows"] = JsonValue(spec->rows);
  record["data_seed"] = JsonValue(static_cast<double>(spec->data_seed));
  record["server_threads"] = JsonValue(static_cast<std::size_t>(spec->threads));
  record["server_shards"] = JsonValue(spec->shards);
  record["hierarchy"] = JsonValue(spec->hierarchy);
  record["nproc"] = JsonValue(static_cast<std::size_t>(std::thread::hardware_concurrency()));
  record["build_type"] = JsonValue(PERFBENCH_BUILD_TYPE);
  record["realtime"] = JsonValue(realtime);
  record["git_describe"] = JsonValue(args.describe);
  record["latency_limit_ms"] = JsonValue(args.latency_limit_ms);
  record["end_to_end"] = MetricsJson(end_to_end, true);
  record["diagnostics"] = MetricsJson(diagnostics, true);
  if (args.trace == 1) {
    record["per_layer"] = MetricsJson(per_layer, true);
    record["replayed_requests"] = JsonValue(replay.requests);
    record["spans"] = JsonValue(replay.spans);
  }
  record["ladder"] = JsonValue(std::move(ladder));
  record["attempted"] = JsonValue(attempted);
  record["failed"] = JsonValue(check.failed);
  record["mismatches"] = JsonValue(check.mismatches);
  record["server_exit_clean"] = JsonValue(exit.clean);
  const fs::path record_path = fs::path(args.work) / "records" /
                               (tag + "-trace" + std::to_string(args.trace) + ".json");
  (void)scwsc::serve::WriteJsonFile(JsonValue(std::move(record)),
                                    record_path.string());
  WriteOpsCsv(plan, records, responses,
              (fs::path(args.work) / "records" /
               (tag + "-trace" + std::to_string(args.trace) + ".ops.csv"))
                  .string());

  JsonObject result;
  result["correct"] = JsonValue(correct);
  result["attempted"] = JsonValue(attempted);
  result["failed"] = JsonValue(failed);
  result["metrics"] = MetricsJson(reported, false);
  std::printf("%s\n", JsonValue(std::move(result)).Dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 --cli PATH --work DIR [--latency-limit-ms X] "
                 "[--describe D]\n");
    return 2;
  }
  return perfbench::Run(args);
}
