// Unit tests for the benchmark's own arithmetic: the tail rule, the
// seeded arrival schedule, and span self time.

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "perfbench/src/schedule.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailTest, PicksP99WhenTenSamplesLieBeyondIt) {
  const Tail tail = SelectTail(Ramp(1000));
  EXPECT_TRUE(tail.qualified);
  EXPECT_DOUBLE_EQ(tail.percentile, 0.99);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
}

TEST(TailTest, FallsBackToP95WhenP99HasTooFewBeyond) {
  // 999 samples: p99 is rank 990, leaving only 9 beyond.
  const Tail tail = SelectTail(Ramp(999));
  EXPECT_DOUBLE_EQ(tail.percentile, 0.95);
  EXPECT_EQ(tail.beyond, 999u - 950u);
  EXPECT_DOUBLE_EQ(tail.value, 950.0);
}

TEST(TailTest, FallsBackToP90AtOneHundredSamples) {
  const Tail tail = SelectTail(Ramp(100));
  EXPECT_TRUE(tail.qualified);
  EXPECT_DOUBLE_EQ(tail.percentile, 0.90);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_DOUBLE_EQ(tail.value, 90.0);
}

TEST(TailTest, MarksTooSmallSamplesAsUnderSampled) {
  const Tail tail = SelectTail(Ramp(99));
  EXPECT_FALSE(tail.qualified);
  EXPECT_DOUBLE_EQ(tail.percentile, 0.90);
  EXPECT_EQ(tail.beyond, 9u);
}

TEST(TailTest, OrderOfSamplesDoesNotMatter) {
  std::vector<double> shuffled = Ramp(200);
  Rng rng(7);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
  }
  EXPECT_DOUBLE_EQ(SelectTail(shuffled).value, SelectTail(Ramp(200)).value);
  EXPECT_DOUBLE_EQ(Median(shuffled), 100.0);
}

TEST(WindowedTailTest, OneStalledWindowDoesNotSetTheTail) {
  // Five windows of 200; the second one carries a burst of stalls.
  std::vector<double> samples;
  for (std::size_t w = 0; w < 5; ++w) {
    for (std::size_t i = 0; i < 200; ++i) {
      samples.push_back(w == 1 && i % 4 == 0 ? 50.0 : 1.0 + 0.001 * static_cast<double>(i));
    }
  }
  std::size_t windows = 0;
  const Tail tail = WindowedTail(samples, &windows);
  EXPECT_EQ(windows, 5u);
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_DOUBLE_EQ(tail.percentile, 0.95);  // 200 per window: p95, 10 beyond
  EXPECT_LT(tail.value, 2.0);
  EXPECT_DOUBLE_EQ(SelectTail(samples).value, 50.0);
}

TEST(WindowedTailTest, SmallSamplesUseOneWindow) {
  std::size_t windows = 0;
  const Tail tail = WindowedTail(Ramp(499), &windows);
  EXPECT_EQ(windows, 1u);
  EXPECT_DOUBLE_EQ(tail.value, SelectTail(Ramp(499)).value);
  WindowedTail(Ramp(500), &windows);
  EXPECT_EQ(windows, 5u);
}

TEST(ScheduleTest, SameSeedGivesTheSameArrivals) {
  const auto a = PoissonArrivals(42, 250.0, 0.0, 4.0);
  const auto b = PoissonArrivals(42, 250.0, 0.0, 4.0);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonArrivals(43, 250.0, 0.0, 4.0));
}

TEST(ScheduleTest, ArrivalsAreOrderedInsideTheWindowAtTheRate) {
  const auto times = PoissonArrivals(9, 500.0, 2.0, 10.0);
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_GE(times[i], 2.0);
    EXPECT_LT(times[i], 12.0);
    if (i > 0) EXPECT_GE(times[i], times[i - 1]);
  }
  EXPECT_EQ(times.size(), 5000u);
}

TEST(ScheduleTest, FixedArrivalsAreEvenlySpaced) {
  const auto times = FixedArrivals(4.0, 1.0, 1.0);
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0], 1.125);
  EXPECT_DOUBLE_EQ(times[3], 1.875);
}

Span At(int parent, std::int64_t start, std::int64_t end) {
  Span s;
  s.name = "s";
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsDisjointChildren) {
  const std::vector<Span> spans = {At(-1, 0, 100), At(0, 10, 30),
                                   At(0, 50, 60)};
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTimeTest, CountsOverlappingChildrenOnce) {
  // Children cover [10, 40) and [30, 70): their union is 60 ns.
  const std::vector<Span> spans = {At(-1, 0, 100), At(0, 10, 40),
                                   At(0, 30, 70)};
  EXPECT_EQ(SelfTimes(spans)[0], 40);
}

TEST(SelfTimeTest, ClipsChildrenToTheParent) {
  // A child that outlives its parent only covers the parent's interval.
  const std::vector<Span> spans = {At(-1, 0, 100), At(0, 90, 150),
                                   At(0, 95, 99)};
  EXPECT_EQ(SelfTimes(spans)[0], 90);
}

TEST(SelfTimeTest, OnlyDirectChildrenCount) {
  const std::vector<Span> spans = {At(-1, 0, 100), At(0, 0, 50),
                                   At(1, 0, 50)};
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 0);
  EXPECT_EQ(self[2], 50);
}

TEST(SpanRecorderTest, NestedScopesRecordParentAndRequest) {
  SpanRecorder recorder;
  {
    ScopedSpan outer(recorder, "outer", -1, 3);
    ScopedSpan inner(recorder, "inner", outer.index(), 3);
  }
  ASSERT_EQ(recorder.spans().size(), 2u);
  const Span& outer = recorder.spans()[0];
  const Span& inner = recorder.spans()[1];
  EXPECT_EQ(inner.parent, 0);
  EXPECT_EQ(inner.request, 3);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
  EXPECT_GE(SelfTimes(recorder.spans())[0], 0);
}

}  // namespace
}  // namespace perfbench
