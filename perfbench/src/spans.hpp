// Host-time spans recorded by the benchmark around its own calls into the
// system's layers (parse, plan, locate, local evaluation, merge, wire
// encoding, share/unshare, execute_batch). Nothing here reaches into
// src/: a span brackets one public call from the outside.
//
// Spans live in memory and are written out once, when the run ends. A
// span's self time is its duration minus the time its child spans cover;
// spans are strictly nested (one recording thread), so that is the
// duration minus the sum of the children's durations. The per-name rollup
// is kept as spans close, so it covers every span even when the stored
// list is capped.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct HostSpan {
  std::string name;
  std::int64_t begin_ns = 0;  // since the trace's origin
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;   // kNoParent for roots
  std::int64_t query = -1;    // query id within its batch, -1 when none
  std::uint64_t items = 0;    // work items covered (triples, rows, ...)
};

/// Per-name totals over a trace.
struct SpanRollup {
  std::uint64_t count = 0;
  std::uint64_t items = 0;
  double total_ns = 0;
  double self_ns = 0;

  [[nodiscard]] double self_us_per_call() const {
    return count == 0 ? 0.0 : self_ns / 1e3 / static_cast<double>(count);
  }
  [[nodiscard]] double self_us_per_item() const {
    return items == 0 ? 0.0 : self_ns / 1e3 / static_cast<double>(items);
  }
};

class HostTrace {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  /// Spans kept for the span file; the rollup counts every span.
  static constexpr std::size_t kMaxStoredSpans = 100000;

  /// A disabled trace records nothing; its scopes still time their call.
  explicit HostTrace(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void open(std::string_view name, std::int64_t query);
  /// Close the innermost open span.
  void close(std::uint64_t items);

  [[nodiscard]] const std::map<std::string, SpanRollup>& rollup() const {
    return rollup_;
  }

  /// {"spans": [...], "spans_dropped": n, "rollup": {...}}; `extra` is
  /// spliced in verbatim as further members (empty or starting with a
  /// comma).
  void write_json(std::ostream& os, const std::string& extra) const;

 private:
  struct Open {
    std::string name;
    std::int64_t begin_ns = 0;
    double child_ns = 0;  // summed durations of closed children
    std::uint32_t stored = kNoParent;  // index in spans_, if kept
  };
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<HostSpan> spans_;
  std::vector<Open> stack_;
  std::map<std::string, SpanRollup> rollup_;
  std::uint64_t dropped_ = 0;
  bool enabled_;
};

/// RAII span: times the enclosed call and, when the trace is enabled,
/// records it. `stop()` ends it early and returns the elapsed seconds.
class Scope {
 public:
  Scope(HostTrace& trace, std::string_view name, std::int64_t query = -1)
      : trace_(&trace), start_(Clock::now()) {
    if (trace_->enabled()) trace_->open(name, query);
  }
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_items(std::uint64_t n) noexcept { items_ = n; }
  double stop() {
    if (!open_) return elapsed_;
    elapsed_ = seconds_since(start_);
    open_ = false;
    if (trace_->enabled()) trace_->close(items_);
    return elapsed_;
  }

 private:
  HostTrace* trace_;
  Clock::time_point start_;
  std::uint64_t items_ = 0;
  double elapsed_ = 0;
  bool open_ = true;
};

}  // namespace perfbench
