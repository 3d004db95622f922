// Hierarchical span tracer: where did the milliseconds go.
//
// A Span is an RAII wall-clock scope. Spans nest into a tree keyed by
// (parent, name), aggregate across repeated entries (one node per distinct
// call path, with count/total/self), and — when tracing is enabled — also
// record individual begin/end events for Chrome trace-event export
// (chrome://tracing or ui.perfetto.dev can load the JSON directly).
//
// Cost model: a Span always reads the steady clock twice so callers can use
// seconds() for stage accounting (FlowMetrics' per-stage breakdown) even
// with tracing off; the tree/event bookkeeping behind the global mutex only
// runs when the tracer is enabled. Spans sit at stage/loop granularity
// (flow stages, route_all, STA runs, training epochs) — per-net work is
// counted through obs::Metrics instead, so the event buffer stays small.
//
//   { GNNMLS_SPAN("route.route_all"); ... }        // fire-and-forget
//   obs::Span s("flow.sta"); ...; sta_s = s.seconds();  // stage accounting
//
// GNNMLS_TRACE=out.json (see init_from_env) enables tracing process-wide
// and writes the Chrome trace at exit; benches and gnnmls_lint honor it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gnnmls::obs {

// One aggregated tree node in a snapshot(), depth-first order (parents
// before their children, siblings in first-entry order).
struct SpanStat {
  std::string name;
  int parent = -1;  // index into the snapshot vector, -1 for roots
  int depth = 0;
  std::uint64_t count = 0;
  double total_s = 0.0;  // wall time summed over all entries
  double self_s = 0.0;   // total_s minus the children's total_s
};

class Tracer {
 public:
  static Tracer& instance();

  // Enabling resets nothing; disable/enable around a region to scope a
  // capture, reset() to start fresh. Thread-safe.
  void set_enabled(bool on);
  bool enabled() const { return enabled_; }

  // Drops the aggregation tree and the event buffer and restarts the trace
  // clock. Open spans from before the reset are discarded on close.
  void reset();

  // --- Span protocol (used by obs::Span; not for direct callers) ----------
  // Returns an epoch-tagged token (0 = not recording). The epoch tag lets
  // end_span reject spans that were open across a reset() even when the new
  // tree has reused their node index.
  std::uint64_t begin_span(const char* name);
  void end_span(std::uint64_t token, std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end);

  // --- reporting ----------------------------------------------------------
  std::vector<SpanStat> snapshot() const;
  // Sum of total_s over every node with this name, anywhere in the tree.
  double total_seconds(std::string_view name) const;
  // Aligned profile table (span/calls/total/self/%), indented by depth.
  std::string profile_table() const;
  // {"traceEvents":[...]} — one "X" (complete) event per recorded span.
  std::string chrome_trace_json() const;
  bool write_chrome_trace(const std::string& path) const;
  // Events not materialized because the buffer cap was reached (they still
  // aggregate into the tree).
  std::size_t dropped_events() const;

 private:
  Tracer() = default;

  struct Node {
    std::string name;
    int parent = -1;
    int depth = 0;
    std::vector<int> children;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  struct Event {
    int node = 0;
    std::uint32_t tid = 0;
    std::uint64_t start_ns = 0;  // relative to base_
    std::uint64_t dur_ns = 0;
  };
  static constexpr std::size_t kMaxEvents = 1u << 18;

  bool enabled_ = false;  // guarded by mu_ for writes; racy reads are benign
  std::uint64_t epoch_ = 1;
  std::vector<Node> nodes_;
  std::vector<int> roots_;
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
  std::chrono::steady_clock::time_point base_ = std::chrono::steady_clock::now();
};

// RAII scope. Always measures wall time (seconds() is valid with tracing
// off); feeds the tracer only while it is enabled. Not copyable/movable —
// create one per scope.
class Span {
 public:
  // `name` is copied by the tracer during construction; a short-lived
  // std::string's c_str() is fine.
  explicit Span(const char* name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  // Closes the span early (idempotent; the destructor calls it too).
  void end();
  // Elapsed seconds so far, or the final duration once ended.
  double seconds() const;

 private:
  std::chrono::steady_clock::time_point start_;
  double final_s_ = -1.0;
  std::uint64_t token_ = 0;
};

// If GNNMLS_TRACE=<path> is set: enable tracing now and register an atexit
// hook that writes the Chrome trace to <path>. Idempotent; returns true when
// the env var is set. Benches and CLIs call this once at startup.
bool init_from_env();

#define GNNMLS_OBS_CONCAT2(a, b) a##b
#define GNNMLS_OBS_CONCAT(a, b) GNNMLS_OBS_CONCAT2(a, b)
// Anonymous RAII span for a scope, e.g. GNNMLS_SPAN("sta.run");
#define GNNMLS_SPAN(name) \
  ::gnnmls::obs::Span GNNMLS_OBS_CONCAT(gnnmls_obs_span_, __LINE__)(name)

}  // namespace gnnmls::obs
