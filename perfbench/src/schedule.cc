#include "perfbench/src/schedule.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::Below(std::size_t n) {
  return static_cast<std::size_t>(Uniform() * static_cast<double>(n));
}

std::vector<double> PoissonArrivals(std::uint64_t seed, double rate,
                                    double start, double duration) {
  std::vector<double> times;
  if (rate <= 0.0 || duration <= 0.0) return times;
  // Given its count, a Poisson process's arrival times are uniform order
  // statistics; fixing the count keeps the offered load equal across seeds.
  Rng rng(seed);
  const auto count = static_cast<std::size_t>(std::llround(rate * duration));
  for (std::size_t i = 0; i < count; ++i) {
    times.push_back(start + duration * rng.Uniform());
  }
  std::sort(times.begin(), times.end());
  return times;
}

std::vector<double> FixedArrivals(double rate, double start,
                                  double duration) {
  std::vector<double> times;
  if (rate <= 0.0 || duration <= 0.0) return times;
  const double period = 1.0 / rate;
  for (double t = start + period / 2; t < start + duration; t += period) {
    times.push_back(t);
  }
  return times;
}

}  // namespace perfbench
