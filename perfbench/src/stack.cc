#include "perfbench/src/stack.h"

#include <cstdio>
#include <optional>
#include <string_view>
#include <utility>

#include "src/api/registry.h"
#include "src/api/solver.h"
#include "src/gen/lbl_synth.h"
#include "src/hierarchy/hierarchy.h"
#include "src/pattern/cost.h"
#include "src/table/builder.h"
#include "src/table/csv.h"

namespace perfbench {

using scwsc::Result;
using scwsc::Status;
using scwsc::Table;

Result<Dataset> GenerateDataset(const WorkloadSpec& spec,
                                const std::string& csv_path) {
  scwsc::gen::LblSynthSpec synth;
  synth.num_rows = spec.rows;
  synth.seed = spec.data_seed;
  SCWSC_ASSIGN_OR_RETURN(Table table, scwsc::gen::MakeLblSynth(synth));
  if (!spec.attributes.empty()) {
    SCWSC_ASSIGN_OR_RETURN(table, table.ProjectAttributes(spec.attributes));
  }
  SCWSC_RETURN_NOT_OK(scwsc::csv::WriteFile(table, csv_path));
  // Read the file back so the in-memory rows are exactly what the server
  // parses (the CSV writer rounds measures).
  Dataset dataset;
  dataset.csv_path = csv_path;
  dataset.measure = table.schema().measure_name();
  SCWSC_ASSIGN_OR_RETURN(Table read, ReadTable(dataset));
  dataset.attributes = read.schema().attribute_names();
  dataset.rows.resize(read.num_rows());
  for (scwsc::RowId r = 0; r < dataset.rows.size(); ++r) {
    Row& row = dataset.rows[r];
    for (std::size_t a = 0; a < read.num_attributes(); ++a) {
      row.values.push_back(read.value_name(r, a));
    }
    row.measure = read.measure(r);
  }
  return dataset;
}

std::vector<std::string> ServerArgs(const std::string& cli,
                                    const WorkloadSpec& spec,
                                    const Dataset& dataset) {
  std::vector<std::string> args = {cli,
                                   "--input",
                                   dataset.csv_path,
                                   "--measure",
                                   dataset.measure,
                                   "--serve",
                                   "0",
                                   "--threads",
                                   std::to_string(spec.threads),
                                   "--shards",
                                   std::to_string(spec.shards)};
  if (spec.hierarchy) {
    args.push_back("--hierarchy");
    args.push_back("flat");
  }
  return args;
}

Result<Table> ReadTable(const Dataset& dataset) {
  scwsc::csv::ReadOptions options;
  options.measure_column = dataset.measure;
  return scwsc::csv::ReadFile(dataset.csv_path, options);
}

Result<Table> TableFromRows(const Dataset& dataset,
                            const std::vector<Row>& rows) {
  scwsc::TableBuilder builder(dataset.attributes, dataset.measure);
  std::vector<std::string_view> values;
  for (const Row& row : rows) {
    values.assign(row.values.begin(), row.values.end());
    SCWSC_RETURN_NOT_OK(builder.AddRow(values, row.measure));
  }
  return std::move(builder).Build();
}

Result<scwsc::api::InstancePtr> BuildSnapshot(const WorkloadSpec& spec,
                                              Table table,
                                              bool with_hierarchy) {
  std::optional<scwsc::hierarchy::TableHierarchy> hierarchy;
  if (with_hierarchy) hierarchy = scwsc::hierarchy::TableHierarchy::Flat(table);
  scwsc::ShardingOptions sharding;
  sharding.num_shards = spec.shards;
  return scwsc::api::InstanceSnapshot::FromTable(
      std::move(table), scwsc::pattern::CostFunction(scwsc::pattern::CostKind::kMax),
      std::move(hierarchy), {}, sharding);
}

Result<Answer> ReferenceSolve(const scwsc::api::InstancePtr& instance,
                              const SolveKey& key) {
  SCWSC_ASSIGN_OR_RETURN(scwsc::api::SolveRequest request,
                         scwsc::api::SolveRequest::Builder(instance)
                             .WithK(key.k)
                             .WithCoverage(key.coverage)
                             .Build());
  SCWSC_ASSIGN_OR_RETURN(
      scwsc::api::SolveResult result,
      scwsc::api::SolverRegistry::Global().Solve(key.solver, request));
  return Answer{std::move(result.labels), result.total_cost};
}

std::string HashHex(std::uint64_t hash) {
  char hex[2 + 16 + 1];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

}  // namespace perfbench
