// The three workloads and the seeded request plans they send.
//
// A plan is everything the load generator will send, drawn in full from
// the seed before the server starts: the solve keys, the row-preserving
// deltas, the open-loop schedule (send time, connection, request line)
// and, for the closed loop, the fixed sequence of distinct requests. The
// server only ever sees the generated CSV and these request lines.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  std::size_t rows = 0;        // synthetic connection-trace rows
  /// Seed of the table itself. It is fixed per workload: the run seed
  /// draws the traffic, so runs differ in what is asked, not in the
  /// instance (solver cost varies by up to 2.5x between generated tables).
  std::uint64_t data_seed = 0;
  /// Trace attributes kept, by index into (protocol, localhost,
  /// remotehost, endstate, flags); empty keeps all five.
  std::vector<std::size_t> attributes;
  bool hierarchy = false;      // served with --hierarchy flat
  unsigned threads = 2;        // server --threads
  std::size_t shards = 1;      // server --shards
};

/// Every workload, in the order the all-workloads report prints them.
const std::vector<WorkloadSpec>& Workloads();
/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

enum class OpKind { kSolve, kPing, kDelta };

struct SolveKey {
  std::string solver;
  std::size_t k = 0;
  double coverage = 0.0;
};

struct Row {
  std::vector<std::string> values;  // one per attribute
  double measure = 0.0;
};

/// Retract one row, append one: the row count never changes.
struct DeltaOp {
  std::size_t retract = 0;
  Row append;
};

class Rng;
/// Retracts a random row and appends the values of one random row of
/// `rows` with the measure of another.
DeltaOp RandomDelta(Rng& rng, const std::vector<Row>& rows);

/// Which part of the run an op belongs to.
enum class Phase { kWarmup, kMeasured, kLadder };

struct Op {
  OpKind kind = OpKind::kPing;
  Phase phase = Phase::kMeasured;
  int conn = 0;
  /// Open loop: seconds after the run starts. Closed loop: unset (-1); the
  /// op is due when the previous one on its connection completes.
  double due_s = -1.0;
  int ladder_step = -1;  // kLadder only: index into Plan::ladder_rates
  int key = -1;          // kSolve: index into Plan::keys
  int delta = -1;        // kDelta: index into Plan::deltas
  std::string line;      // the request, newline-terminated
};

struct Plan {
  std::vector<SolveKey> keys;
  std::vector<DeltaOp> deltas;
  /// Every op; an op's request id is "r<index>". Warm-up ops come first,
  /// then open-loop ops sorted by due time, then the closed-loop sequence.
  std::vector<Op> ops;
  std::size_t first_open = 0;
  std::size_t first_closed = 0;
  /// Seconds during which the measured phase sends; ladder steps follow.
  double measured_s = 0.0;
  std::vector<double> ladder_rates;  // solves/s per ladder step
  /// Nominal solve rate of the measured phase (open-loop workloads).
  double nominal_rate = 0.0;
};

/// Draws the plan for `spec` from `seed`. `rows` are the generated table's
/// rows (deltas append copies of their values); `seconds` is the run
/// length.
Plan MakePlan(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
              const std::vector<Row>& rows);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
