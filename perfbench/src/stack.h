// The benchmark's calls into the scwsc library: generating the workload's
// trace, building snapshots exactly as `scwsc_cli --serve` builds them,
// and serial reference solves through SolverRegistry::Solve.

#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/api/instance.h"
#include "src/common/result.h"
#include "src/table/table.h"

namespace perfbench {

/// The generated input: the CSV the server reads plus its rows in memory.
struct Dataset {
  std::string csv_path;
  std::vector<std::string> attributes;
  std::string measure;
  std::vector<Row> rows;
};

/// Writes the workload's synthetic connection trace (`spec.rows` rows
/// drawn from `spec.data_seed`, projected to `spec.attributes`) to
/// `csv_path`.
scwsc::Result<Dataset> GenerateDataset(const WorkloadSpec& spec,
                                       const std::string& csv_path);

/// The server command line for `spec` over `dataset`.
std::vector<std::string> ServerArgs(const std::string& cli,
                                    const WorkloadSpec& spec,
                                    const Dataset& dataset);

/// csv::ReadFile of the dataset, with the server's read options.
scwsc::Result<scwsc::Table> ReadTable(const Dataset& dataset);

/// A table built from scratch over `rows` (TableBuilder, in row order).
scwsc::Result<scwsc::Table> TableFromRows(const Dataset& dataset,
                                          const std::vector<Row>& rows);

/// InstanceSnapshot::FromTable with the server's cost function, sharding
/// and (when `with_hierarchy`) flat hierarchies.
scwsc::Result<scwsc::api::InstancePtr> BuildSnapshot(const WorkloadSpec& spec,
                                                     scwsc::Table table,
                                                     bool with_hierarchy);

/// What a solve response is checked on.
struct Answer {
  std::vector<std::string> selection;
  double total_cost = 0.0;
};

/// One serial SolverRegistry::Solve.
scwsc::Result<Answer> ReferenceSolve(const scwsc::api::InstancePtr& instance,
                                     const SolveKey& key);

/// "0x%016x", the wire rendering of a content hash.
std::string HashHex(std::uint64_t hash);

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
