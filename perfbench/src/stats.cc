#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 0-based nearest-rank index of percentile `p` among `n` sorted samples.
std::size_t RankIndex(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return std::min(index, n - 1);
}

/// Samples strictly above the nearest-rank position of `p` among `n`.
std::size_t SamplesBeyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, p);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t index = RankIndex(samples.size(), p);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

Tail SelectTail(std::vector<double> samples, std::size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  for (const double p : {0.99, 0.95, 0.90}) {
    tail.percentile = p;
    tail.beyond = SamplesBeyond(samples.size(), p);
    if (tail.beyond >= min_beyond) {
      tail.qualified = true;
      break;
    }
  }
  tail.value = Percentile(std::move(samples), tail.percentile);
  return tail;
}

Tail WindowedTail(const std::vector<double>& samples, std::size_t* windows) {
  const std::size_t n = samples.size();
  const std::size_t count = n >= 500 ? 5 : 1;
  std::vector<Tail> tails;
  for (std::size_t w = 0; w < count; ++w) {
    tails.push_back(SelectTail(std::vector<double>(
        samples.begin() + static_cast<std::ptrdiff_t>(w * n / count),
        samples.begin() + static_cast<std::ptrdiff_t>((w + 1) * n / count))));
  }
  std::sort(tails.begin(), tails.end(),
            [](const Tail& a, const Tail& b) { return a.value < b.value; });
  Tail tail = tails[count / 2];
  tail.samples = n;
  if (windows != nullptr) *windows = count;
  return tail;
}

}  // namespace perfbench
