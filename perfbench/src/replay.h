// The traced run: an in-process replay of the request stream the wire run
// sent, through the public functions of each layer, with one span around
// every call.
//
// Calls, in order: csv::ReadFile and InstanceSnapshot::FromTable (three
// times each, the median kept), the first set_system() call, then per
// request ParseJson + CheckWireVersion + ParseJobObject / ParseDeltaObject,
// SolverRegistry::Solve (once per snapshot version and key, as the
// server's result cache would) or api::ApplyDelta, and JsonValue::Dump of
// the response. Set-backed solvers get their pattern enumeration in its
// own span first, so solve spans time the solver alone. Layers the stream
// does not reach (the hierarchical solvers on a workload served without
// hierarchies, deltas on one without writes) are probed once on the
// workload's own table so every layer metric has a sample; probe spans
// sit under a "probe" root.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/loadgen.h"
#include "perfbench/src/stack.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

struct ReplayOutput {
  bool ok = false;
  std::string error;
  std::map<std::string, double> metrics;  // per-layer metric -> value
  std::map<std::string, std::size_t> samples;  // metric -> sample count
  std::size_t requests = 0;  // requests replayed
  std::size_t spans = 0;
};

/// Replays the sent ops of `records` in send order for at most `seconds`,
/// then the probes, and writes the spans to `span_path`.
ReplayOutput RunTracedReplay(const WorkloadSpec& spec, const Dataset& dataset,
                             const Plan& plan,
                             const std::vector<OpRecord>& records,
                             std::uint64_t seed, double seconds,
                             const std::string& span_path);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
