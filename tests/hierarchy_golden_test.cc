// Golden pins for the hierarchical lattice descents (hcmc, hcwsc).
//
// Exact outputs on the LBL-like synthetic trace (2,000 rows, seed 9), once
// with the endstate rollup of HCmcTest.SelectsWithinHierarchyOnTrace and
// once over flat hierarchies: the selections in order, total_cost
// bit-for-bit (hex float literals), patterns considered, candidates
// admitted, budget rounds and rows covered. The values were recorded from
// the descents that costed each popped pattern by a full table scan and
// grouped children through hash maps; the node-postings index and the
// scratch-array child grouper must reproduce them exactly.

#include <ostream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/gen/lbl_synth.h"
#include "src/hierarchy/hcmc.h"
#include "src/hierarchy/hcwsc.h"

namespace scwsc {
namespace {

using hierarchy::AttributeHierarchy;
using hierarchy::HSolution;
using hierarchy::TableHierarchy;
using pattern::CostFunction;
using pattern::CostKind;

struct Golden {
  const char* solver;  // "hcmc" or "hcwsc"
  bool rollup;         // endstate rolled up into normal/abnormal, else flat
  CostKind cost;
  std::size_t k;
  double coverage;
  std::vector<const char*> patterns;
  double total_cost;
  std::size_t considered;
  std::size_t admitted;
  std::size_t budget_rounds;
  std::size_t covered;
};

// clang-format off
const Golden kGolden[] = {
    {"hcmc", true, CostKind::kMax, 4, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=normal, flags=ALL}"},
     0x1.2aaeec5cb3f22p+6, 23975, 23975, 11, 523},
    {"hcmc", true, CostKind::kMax, 4, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=normal, flags=ALL}",
      "{protocol=ALL, localhost=lh1, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=rh1, endstate=ALL, flags=ALL}"},
     0x1.a890ff5194088p+8, 18223, 18223, 12, 823},
    {"hcmc", true, CostKind::kMax, 8, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=normal, flags=ALL}"},
     0x1.2aaeec5cb3f22p+6, 27485, 27485, 10, 523},
    {"hcmc", true, CostKind::kMax, 8, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=normal, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f1}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=S2, flags=ALL}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f0}",
      "{protocol=nntp, localhost=lh1, remotehost=ALL, endstate=abnormal, flags=ALL}"},
     0x1.eee2076f02264p+7, 19070, 19070, 10, 766},
    {"hcwsc", true, CostKind::kMax, 4, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=nntp, localhost=lh1, remotehost=ALL, endstate=abnormal, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=S2, flags=ALL}"},
     0x1.1c837b9a6820ap+7, 6913, 452, 0, 647},
    {"hcwsc", true, CostKind::kMax, 4, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=abnormal, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}"},
     0x1.43132c2f61354p+10, 2923, 27, 0, 2000},
    {"hcwsc", true, CostKind::kMax, 8, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=nntp, localhost=lh1, remotehost=ALL, endstate=abnormal, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=abnormal, flags=f4}",
      "{protocol=nntp, localhost=lh5, remotehost=ALL, endstate=abnormal, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=rh3, endstate=ALL, flags=f0}",
      "{protocol=ALL, localhost=lh7, remotehost=rh44, endstate=S0, flags=ALL}",
      "{protocol=ALL, localhost=lh4, remotehost=ALL, endstate=S1, flags=f0}",
      "{protocol=finger, localhost=lh0, remotehost=ALL, endstate=S2, flags=f5}"},
     0x1.b3869e9adf2bbp+6, 69238, 5170, 0, 600},
    {"hcwsc", true, CostKind::kMax, 8, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=abnormal, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=S2, flags=ALL}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f0}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}"},
     0x1.3ea1e0a5e8ff4p+10, 5526, 119, 0, 2000},
    {"hcmc", true, CostKind::kSum, 4, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=normal, flags=ALL}"},
     0x1.493ee516d05dbp+11, 42426, 42426, 16, 523},
    {"hcmc", true, CostKind::kSum, 4, 0.6,
     {"{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=normal, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=abnormal, flags=ALL}"},
     0x1.22c303f8f4afdp+13, 34454, 34454, 17, 1130},
    {"hcmc", true, CostKind::kSum, 8, 0.3,
     {"{protocol=nntp, localhost=lh0, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f1}",
      "{protocol=nntp, localhost=lh1, remotehost=ALL, endstate=ALL, flags=ALL}"},
     0x1.674c04089fc24p+11, 43734, 43734, 14, 437},
    {"hcmc", true, CostKind::kSum, 8, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=normal, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=abnormal, flags=f1}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=abnormal, flags=f0}"},
     0x1.cbe4db65241ep+12, 35720, 35720, 15, 868},
    {"hcwsc", true, CostKind::kSum, 4, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=S2, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=S3, flags=f1}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=RSTOSn, flags=ALL}"},
     0x1.6f110fab2e263p+11, 10433, 562, 0, 600},
    {"hcwsc", true, CostKind::kSum, 4, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=abnormal, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}"},
     0x1.2b51999bee499p+13, 2923, 27, 0, 1238},
    {"hcwsc", true, CostKind::kSum, 8, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=f1}",
      "{protocol=nntp, localhost=lh1, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=f0}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=f3}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=f2}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f0}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f4}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=S3, flags=f1}"},
     0x1.9fdadf7e3f0b9p+11, 13039, 297, 0, 601},
    {"hcwsc", true, CostKind::kSum, 8, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=abnormal, flags=ALL}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=abnormal, flags=f0}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=S3, flags=f0}",
      "{protocol=http, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=S3, flags=f1}"},
     0x1.0e6cd29bd34cap+13, 10654, 414, 0, 1205},
    {"hcmc", false, CostKind::kMax, 4, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}"},
     0x1.2aaeec5cb3f22p+6, 22217, 22217, 11, 523},
    {"hcmc", false, CostKind::kMax, 4, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=ALL, localhost=lh1, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=rh1, endstate=ALL, flags=ALL}"},
     0x1.a890ff5194088p+8, 17322, 17322, 12, 823},
    {"hcmc", false, CostKind::kMax, 8, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}"},
     0x1.2aaeec5cb3f22p+6, 25684, 25684, 10, 523},
    {"hcmc", false, CostKind::kMax, 8, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f1}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=S2, flags=ALL}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f0}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=S2, flags=ALL}"},
     0x1.11306ae7da9c2p+8, 18587, 18587, 10, 764},
    {"hcwsc", false, CostKind::kMax, 4, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=S2, flags=ALL}",
      "{protocol=nntp, localhost=lh41, remotehost=rh1, endstate=S2, flags=f0}"},
     0x1.da7080941990bp+6, 25349, 22044, 0, 600},
    {"hcwsc", false, CostKind::kMax, 4, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}"},
     0x1.43132c2f61354p+10, 2918, 16, 0, 2000},
    {"hcwsc", false, CostKind::kMax, 8, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=RSTOSn, flags=ALL}",
      "{protocol=ALL, localhost=lh1, remotehost=ALL, endstate=S2, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}"},
     0x1.e6dbad1742e41p+9, 15532, 523, 0, 2000},
    {"hcwsc", false, CostKind::kMax, 8, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=S2, flags=ALL}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f0}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}"},
     0x1.3ea1e0a5e8ff4p+10, 5494, 74, 0, 2000},
    {"hcmc", false, CostKind::kSum, 4, 0.3,
     {"{protocol=nntp, localhost=lh0, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f1}",
      "{protocol=nntp, localhost=lh1, remotehost=ALL, endstate=ALL, flags=ALL}"},
     0x1.674c04089fc24p+11, 37353, 37353, 15, 437},
    {"hcmc", false, CostKind::kSum, 4, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}"},
     0x1.6307e5d8c7fc9p+12, 30719, 30719, 16, 844},
    {"hcmc", false, CostKind::kSum, 8, 0.3,
     {"{protocol=nntp, localhost=lh0, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=SF, flags=f1}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=S2, flags=f0}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f4}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f0}"},
     0x1.3c4323e872419p+11, 39406, 39406, 13, 407},
    {"hcmc", false, CostKind::kSum, 8, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}"},
     0x1.6307e5d8c7fc9p+12, 33708, 33708, 15, 844},
    {"hcwsc", false, CostKind::kSum, 4, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=S2, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=S3, flags=f1}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=RSTOSn, flags=ALL}"},
     0x1.6f110fab2e263p+11, 10395, 371, 0, 600},
    {"hcwsc", false, CostKind::kSum, 4, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f1}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}"},
     0x1.bbebc7cbc882cp+13, 2951, 19, 0, 1212},
    {"hcwsc", false, CostKind::kSum, 8, 0.3,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=f1}",
      "{protocol=nntp, localhost=lh1, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=f0}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=f3}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=f2}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f0}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f4}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=S3, flags=f1}"},
     0x1.9fdadf7e3f0b9p+11, 12929, 191, 0, 601},
    {"hcwsc", false, CostKind::kSum, 8, 0.6,
     {"{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=finger, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=ftp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f1}",
      "{protocol=smtp, localhost=ALL, remotehost=ALL, endstate=SF, flags=ALL}",
      "{protocol=ALL, localhost=ALL, remotehost=ALL, endstate=S3, flags=ALL}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f2}",
      "{protocol=nntp, localhost=ALL, remotehost=ALL, endstate=ALL, flags=f0}"},
     0x1.931d7031bb52p+13, 7306, 56, 0, 1264}
};
// clang-format on

std::string Name(const Golden& g) {
  return std::string(g.solver) + (g.rollup ? "_rollup" : "_flat") +
         (g.cost == CostKind::kMax ? "_max" : "_sum") + "_k" +
         std::to_string(g.k) + "_s" +
         std::to_string(static_cast<int>(g.coverage * 100 + 0.5));
}

std::string GoldenName(const ::testing::TestParamInfo<Golden>& info) {
  return Name(info.param);
}

// Keeps gtest from printing the parameter's bytes (pointers included).
void PrintTo(const Golden& g, std::ostream* os) { *os << Name(g); }

struct Trace {
  Table table;
  TableHierarchy rollup;
  TableHierarchy flat;
};

const Trace& SharedTrace() {
  static const Trace* trace = [] {
    gen::LblSynthSpec spec;
    spec.num_rows = 2000;
    spec.seed = 9;
    auto table = gen::MakeLblSynth(spec);
    EXPECT_TRUE(table.ok());
    std::vector<std::pair<std::string, std::string>> edges;
    for (ValueId v = 0; v < table->domain_size(3); ++v) {
      const std::string& name = table->dictionary(3).Name(v);
      edges.emplace_back(name, name == "SF" ? "normal" : "abnormal");
    }
    auto states = AttributeHierarchy::Build(table->dictionary(3), edges);
    EXPECT_TRUE(states.ok());
    auto rollup = TableHierarchy::Build(*table, {{3, *states}});
    EXPECT_TRUE(rollup.ok());
    TableHierarchy flat = TableHierarchy::Flat(*table);
    return new Trace{std::move(table).value(), std::move(rollup).value(),
                     std::move(flat)};
  }();
  return *trace;
}

class HierarchyGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(HierarchyGoldenTest, ReproducesPinnedOutput) {
  const Golden& g = GetParam();
  const Trace& trace = SharedTrace();
  const TableHierarchy& h = g.rollup ? trace.rollup : trace.flat;
  pattern::PatternStats stats;
  Result<HSolution> solution = Status::Internal("not run");
  if (std::string(g.solver) == "hcmc") {
    CmcOptions opts;
    opts.k = g.k;
    opts.coverage_fraction = g.coverage;
    solution = hierarchy::RunHierarchicalCmc(trace.table, h,
                                             CostFunction(g.cost), opts,
                                             &stats);
  } else {
    CwscOptions opts;
    opts.k = g.k;
    opts.coverage_fraction = g.coverage;
    solution = hierarchy::RunHierarchicalCwsc(trace.table, h,
                                              CostFunction(g.cost), opts,
                                              &stats);
  }
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  std::vector<std::string> got;
  for (const auto& p : solution->patterns) {
    got.push_back(p.ToString(trace.table, h));
  }
  EXPECT_EQ(got, std::vector<std::string>(g.patterns.begin(),
                                          g.patterns.end()));
  EXPECT_EQ(solution->total_cost, g.total_cost);  // bit-identical
  EXPECT_EQ(stats.patterns_considered, g.considered);
  EXPECT_EQ(stats.candidates_admitted, g.admitted);
  EXPECT_EQ(stats.budget_rounds, g.budget_rounds);
  EXPECT_EQ(solution->covered, g.covered);
}

INSTANTIATE_TEST_SUITE_P(LblSynth, HierarchyGoldenTest,
                         ::testing::ValuesIn(kGolden), GoldenName);

}  // namespace
}  // namespace scwsc
