// In-memory spans for the traced replay.
//
// The replay opens one span around each call into a layer's public
// function: name, start, end, the span that caused it and the request it
// belongs to. Spans stay in memory while the replay runs and are written
// out once, as Chrome trace-event JSON (loadable in Perfetto), when it
// ends. A span's self time is its duration minus the part of its interval
// that its children cover; overlapping children count once.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;            // index into the span list, -1 for a root
  std::int64_t request = -1;  // replayed request, -1 outside any request
};

/// Self time of every span in `spans` (same order): its duration minus
/// the union of its children's intervals clipped to its own.
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span and returns its index.
  int Begin(std::string name, int parent, std::int64_t request);
  void End(int index);

  /// Nanoseconds since the recorder was created.
  std::int64_t Now() const;

  const std::vector<Span>& spans() const { return spans_; }
  Span& span(int index) { return spans_[static_cast<std::size_t>(index)]; }

  /// Writes every span as a Chrome "X" event with its parent, request and
  /// self time in args. Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
};

/// Closes its span when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, int parent,
             std::int64_t request)
      : recorder_(recorder),
        index_(recorder.Begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }
  /// Seconds from open to now (or to close, once closed).
  double seconds() const;

 private:
  SpanRecorder& recorder_;
  const int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
