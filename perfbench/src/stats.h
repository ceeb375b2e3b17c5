// Order statistics for the benchmark's latency figures.
//
// Every timing is reported as a median plus a "tail": the highest of p99,
// p95 and p90 that has at least ten samples beyond it, so a tail is never
// read off a handful of observations. The chosen percentile and the counts
// travel with the value into the run record.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (unsorted; copied), `p` in (0, 1].
/// 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Percentile(samples, 0.5).
double Median(std::vector<double> samples);

struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // 0.99, 0.95 or 0.90
  std::size_t samples = 0;
  std::size_t beyond = 0;
  /// False when even p90 has fewer than ten samples beyond it; the value is
  /// then p90 anyway and the record marks it as under-sampled.
  bool qualified = false;
};

/// The highest of p99, p95 and p90 with at least `min_beyond` samples
/// beyond it.
Tail SelectTail(std::vector<double> samples, std::size_t min_beyond = 10);

/// The tail of a run, robust to a short stall of the host: with at least
/// 500 `samples` (in time order) they are cut into 5 consecutive windows,
/// SelectTail is applied to every window and the median window's tail is
/// returned; with fewer, SelectTail of them all. A fixed threshold, rather
/// than a window count that grows with the sample, keeps a workload whose
/// sample count varies a little from switching percentiles between runs.
/// `windows` receives the window count.
Tail WindowedTail(const std::vector<double>& samples, std::size_t* windows);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
