#include "perfbench/src/spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimal JSON string escaping for span names.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : intervals) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

SpanRecorder::SpanRecorder() : origin_ns_(SteadyNs()) {}

std::int64_t SpanRecorder::Now() const { return SteadyNs() - origin_ns_; }

int SpanRecorder::Begin(std::string name, int parent, std::int64_t request) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request = request;
  span.start_ns = Now();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int index) { span(index).end_ns = Now(); }

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<std::int64_t> self = SelfTimes(spans_);
  std::fprintf(out, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"index\":%zu,"
                 "\"parent\":%d,\"request\":%lld,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", Quote(s.name).c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<long long>(s.request),
                 static_cast<double>(self[i]) / 1e3);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

double ScopedSpan::seconds() const {
  const Span& s = recorder_.spans()[static_cast<std::size_t>(index_)];
  const std::int64_t end = s.end_ns > 0 ? s.end_ns : recorder_.Now();
  return static_cast<double>(end - s.start_ns) / 1e9;
}

}  // namespace perfbench
