// Seeded randomness and open-loop arrival schedules.
//
// The generator draws every open-loop send time before the run starts, so
// a slow server cannot slow the offered load: requests are timed from the
// moment they were due, not from when the sender got round to them. The
// random source is a self-contained splitmix64, so a seed names the same
// inputs on every toolchain.

#ifndef PERFBENCH_SCHEDULE_H_
#define PERFBENCH_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n); n must be positive.
  std::size_t Below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Send times (seconds, ascending) of a Poisson process of `rate` per
/// second over [start, start + duration), drawn from `seed` and
/// conditioned on its expected count, round(rate * duration).
std::vector<double> PoissonArrivals(std::uint64_t seed, double rate,
                                    double start, double duration);

/// Evenly spaced send times at `rate` per second over
/// [start, start + duration), the first one a half period in.
std::vector<double> FixedArrivals(double rate, double start, double duration);

}  // namespace perfbench

#endif  // PERFBENCH_SCHEDULE_H_
