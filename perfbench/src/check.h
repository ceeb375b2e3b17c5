// Decoding the server's responses and checking them against serial
// reference solves, outside the timed window.
//
// A solve response must carry the same selection and the bit-identical
// total_cost as SolverRegistry::Solve on the snapshot version it ran on.
// Under live deltas the version is not known exactly, so a solve matches
// if it equals the reference on any version that was current at some
// moment between its send and its receive. Every delta response's content
// hash must equal a from-scratch rebuild of the shadow table the
// generator keeps.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstddef>
#include <string>
#include <vector>

#include "perfbench/src/loadgen.h"
#include "perfbench/src/stack.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

struct Response {
  bool answered = false;
  bool ok = false;
  std::string error;  // error code, or why the line did not decode
  // solve
  Answer answer;
  bool from_cache = false;
  double queue_s = 0.0;
  double run_s = 0.0;
  // delta
  std::string content_hash;
};

/// Decodes every answered record.
std::vector<Response> DecodeResponses(const std::vector<OpRecord>& records);

struct CheckResult {
  std::size_t mismatches = 0;  // wrong content
  std::size_t failed = 0;      // sent but unanswered, or answered not ok
  std::size_t versions = 0;    // snapshot versions rebuilt
  std::vector<std::string> problems;  // the first few, for the log
};

/// Checks every sent op. Reference work runs on `threads` threads.
CheckResult CheckRun(const WorkloadSpec& spec, const Dataset& dataset,
                     const Plan& plan, const std::vector<OpRecord>& records,
                     const std::vector<Response>& responses,
                     unsigned threads);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
