/// \file spans.h
/// \brief Wall-clock spans recorded by the harness around calls into each
/// layer, kept in memory and written out when the run ends.
///
/// A span has a name, a start and end (ms since the log was created), a
/// parent span and an operation id shared by every span of one
/// end-to-end call. Spans are recorded from the harness's own code only:
/// the root is the end-to-end call, its children replay that call's
/// inputs through each layer's public entry point after the call
/// returned. Spans marked `probe` are standalone measurements (e.g. a
/// CRC throughput probe) and never count towards a parent's covered time.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool probe = false;
  double duration_ms() const { return end_ms - start_ms; }
};

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Self time of a span: its duration minus the time its children cover.
/// Overlapping children (e.g. replays run on several threads) are
/// counted once. Children that do not fit — replays estimate a call, so
/// they can add up to more than it took — leave a negative residual,
/// which is kept as is and flagged, never clamped to zero.
struct SelfTime {
  double duration = 0.0;
  double covered = 0.0;
  double self = 0.0;
  bool negative = false;
};

/// Length of the union of \p intervals.
inline double CoveredLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double run_start = 0.0;
  double run_end = 0.0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (open && iv.start <= run_end) {
      run_end = std::max(run_end, iv.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = iv.start;
    run_end = iv.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

inline SelfTime ComputeSelfTime(double duration,
                                const std::vector<Interval>& children) {
  SelfTime out;
  out.duration = duration;
  out.covered = CoveredLength(children);
  out.self = duration - out.covered;
  out.negative = out.self < 0.0;
  return out;
}

/// Thread-safe in-memory span sink.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : origin_(Clock::now()) {}

  double NowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
        .count();
  }

  uint64_t NewOp() { return next_op_.fetch_add(1) + 1; }

  /// Records a finished span; returns its id.
  uint64_t Add(std::string name, uint64_t parent, uint64_t op,
               double start_ms, double end_ms, bool probe = false) {
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.op = op;
    s.name = std::move(name);
    s.start_ms = start_ms;
    s.end_ms = end_ms;
    s.probe = probe;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Reserves an id for a span whose children are recorded before it
  /// ends (Finish fills it in).
  uint64_t Reserve(std::string name, uint64_t parent, uint64_t op) {
    const double now = NowMs();
    return Add(std::move(name), parent, op, now, now);
  }
  void Finish(uint64_t id, double start_ms, double end_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[id - 1];
    s.start_ms = start_ms;
    s.end_ms = end_ms;
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Self time of every span (index id - 1) from its non-probe children.
  static std::vector<SelfTime> SelfTimes(const std::vector<Span>& spans) {
    std::vector<std::vector<Interval>> children(spans.size());
    for (const Span& s : spans) {
      if (s.parent != 0 && !s.probe) {
        children[s.parent - 1].push_back({s.start_ms, s.end_ms});
      }
    }
    std::vector<SelfTime> out;
    out.reserve(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      out.push_back(ComputeSelfTime(spans[i].duration_ms(), children[i]));
    }
    return out;
  }

  /// Sum of the durations of every span called \p name.
  static double TotalMs(const std::vector<Span>& spans,
                        const std::string& name) {
    double total = 0.0;
    for (const Span& s : spans) {
      if (s.name == name) total += s.duration_ms();
    }
    return total;
  }
  static uint64_t Count(const std::vector<Span>& spans,
                        const std::string& name) {
    uint64_t n = 0;
    for (const Span& s : spans) n += s.name == name ? 1 : 0;
    return n;
  }

 private:
  Clock::time_point origin_;
  std::atomic<uint64_t> next_op_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times one call into a layer and records it as a span on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent, uint64_t op,
             bool probe = false)
      : log_(log), name_(name), parent_(parent), op_(op), probe_(probe),
        start_(log->NowMs()) {}
  ~ScopedSpan() { log_->Add(name_, parent_, op_, start_, log_->NowMs(), probe_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t parent_;
  uint64_t op_;
  bool probe_;
  double start_;
};

}  // namespace perfbench
