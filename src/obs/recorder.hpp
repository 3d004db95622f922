// Flight recorder: a bounded, lock-free, per-thread ring of structured flow
// events, kept always-on so every failure already has its black box.
//
// The span tracer answers "where did the time go"; the recorder answers
// "what happened just before it went wrong". Pass begin/end, DB revision
// bumps, ft retries/rollbacks/degradations, and fault-site arms/trips are
// recorded as fixed-size POD events into per-thread rings. When a wave fails
// or a recovery policy engages, ft::dump_black_box() merges the rings into a
// JSON post-mortem next to the FlowError.
//
// Concurrency model:
//   * record() touches only the calling thread's ring: a global relaxed
//     atomic ordinal (total order across threads), then per-slot seqlock
//     (stamp odd while writing) with relaxed atomic field stores. No locks,
//     no allocation — safe from any thread.
//   * Rings are claimed from a registry on first use per thread and released
//     at thread exit for reuse, so short-lived threads recycle a bounded
//     pool instead of growing one ring per thread ever created.
//   * drain() runs under the registry mutex, reads slots through the seqlock
//     (a torn slot mid-write is skipped), and merges by ordinal. The flow
//     records from one thread and dumps after the failed wave ended, so in
//     practice every event is quiesced and none are torn.
//
// Capacity is kRingEvents per thread; older events are overwritten. That is
// the point: the recorder is the *last* kRingEvents of context per thread,
// not a log.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gnnmls::obs {

enum class EventKind : std::uint8_t {
  kMark = 0,     // free-form annotation
  kPassBegin,    // what=pass, a=wave, b=attempt
  kPassEnd,      // what=pass, a=wave, b=duration_ns
  kPassFail,     // what=pass, a=wave, b=error code
  kCommit,       // what=stage, a=new revision
  kRollback,     // what=pass list summary, a=wave, b=restored fingerprint low bits
  kRetry,        // what=pass, a=wave, b=attempt
  kDegrade,      // what=pass.fallback, a=error code
  kFaultArm,     // what=site, a=remaining trip count
  kFaultTrip,    // what=site
  kDispatch,     // what=ml.simd.<level>, a=SimdLevel — kernel table selection
};
const char* to_string(EventKind kind);

struct FlightEvent {
  std::uint64_t ordinal = 0;  // global 1-based order of record() calls
  std::uint64_t t_ns = 0;     // steady-clock ns since recorder start/reset
  std::uint32_t tid = 0;      // recorder-assigned thread ordinal
  EventKind kind = EventKind::kMark;
  std::uint64_t a = 0, b = 0;  // kind-specific payload
  std::string what;            // truncated to kWhatBytes at record time
};

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  static constexpr std::size_t kRingEvents = 256;  // per thread, power of two
  static constexpr std::size_t kWhatBytes = 47;    // + NUL in the slot

  // Lock-free on the steady state (first call per thread claims a ring
  // under the registry mutex). `what` beyond kWhatBytes is truncated.
  void record(EventKind kind, std::string_view what, std::uint64_t a = 0, std::uint64_t b = 0);

  // Merged copy of every ring's surviving events, sorted by ordinal.
  // Non-destructive; skips slots caught mid-write.
  std::vector<FlightEvent> drain() const;
  // `[{"ord":..,"t_s":..,"tid":..,"kind":"..","a":..,"b":..,"what":".."},...]`
  // of the last `max_events` drained events (0 = all).
  std::string events_json(std::size_t max_events = 0) const;

  // Total record() calls since construction/reset (events may have been
  // overwritten; this is the ordinal high-water mark).
  std::uint64_t recorded() const { return ordinal_.load(std::memory_order_relaxed); }

  // Test hook: zeroes all rings and the ordinal/clock base. Not safe
  // concurrent with writers.
  void reset();

 private:
  FlightRecorder();
  struct Ring;
  struct Registry;
  Registry& registry() const;
  Ring& local_ring();

  std::atomic<std::uint64_t> ordinal_{0};
  std::atomic<std::int64_t> base_ns_{0};  // steady-clock origin for t_ns
};

}  // namespace gnnmls::obs
