#include "obs/recorder.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>

#include "util/json.hpp"

namespace gnnmls::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kMark: return "mark";
    case EventKind::kPassBegin: return "pass_begin";
    case EventKind::kPassEnd: return "pass_end";
    case EventKind::kPassFail: return "pass_fail";
    case EventKind::kCommit: return "commit";
    case EventKind::kRollback: return "rollback";
    case EventKind::kRetry: return "retry";
    case EventKind::kDegrade: return "degrade";
    case EventKind::kFaultArm: return "fault_arm";
    case EventKind::kFaultTrip: return "fault_trip";
    case EventKind::kDispatch: return "dispatch";
  }
  return "unknown";
}

// One event slot. Every field is a relaxed atomic (no data race with a
// concurrent drain) and the seqlock stamp brackets the write: odd while the
// writer is inside, bumped even on publish. A reader that sees the stamp
// change across its field loads discards the slot.
struct Slot {
  std::atomic<std::uint64_t> stamp{0};
  std::atomic<std::uint64_t> ordinal{0};
  std::atomic<std::uint64_t> t_ns{0};
  std::atomic<std::uint64_t> meta{0};  // tid << 8 | kind
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  std::array<std::atomic<std::uint64_t>, 6> what{};  // 48 NUL-padded bytes
};

struct FlightRecorder::Ring {
  std::atomic<std::uint32_t> claimed{0};
  std::atomic<std::uint64_t> seq{0};  // events ever written; owner-only writes
  std::array<Slot, kRingEvents> slots{};
};

struct FlightRecorder::Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;
  std::uint32_t next_tid = 0;
};

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder r;
  return r;
}

FlightRecorder::FlightRecorder() { base_ns_.store(steady_ns(), std::memory_order_relaxed); }

FlightRecorder::Registry& FlightRecorder::registry() const {
  static Registry reg;
  return reg;
}

namespace {

// Releases the thread's ring back to the pool at thread exit so short-lived
// threads recycle rings instead of leaking one each.
struct ThreadClaim {
  std::atomic<std::uint32_t>* claimed = nullptr;
  void* ring = nullptr;
  std::uint32_t tid = 0;
  ~ThreadClaim() {
    if (claimed) claimed->store(0, std::memory_order_release);
  }
};

ThreadClaim& thread_claim() {
  thread_local ThreadClaim claim;
  return claim;
}

}  // namespace

FlightRecorder::Ring& FlightRecorder::local_ring() {
  ThreadClaim& claim = thread_claim();
  if (claim.ring == nullptr) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    Ring* ring = nullptr;
    for (auto& r : reg.rings) {
      std::uint32_t expect = 0;
      if (r->claimed.compare_exchange_strong(expect, 1, std::memory_order_acquire)) {
        ring = r.get();
        break;
      }
    }
    if (ring == nullptr) {
      reg.rings.push_back(std::make_unique<Ring>());
      ring = reg.rings.back().get();
      ring->claimed.store(1, std::memory_order_relaxed);
    }
    claim.ring = ring;
    claim.claimed = &ring->claimed;
    claim.tid = reg.next_tid++;
  }
  return *static_cast<Ring*>(claim.ring);
}

void FlightRecorder::record(EventKind kind, std::string_view what, std::uint64_t a,
                            std::uint64_t b) {
  Ring& ring = local_ring();
  const std::uint64_t ord = ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t n = ring.seq.load(std::memory_order_relaxed);
  Slot& s = ring.slots[n % kRingEvents];

  s.stamp.fetch_add(1, std::memory_order_acq_rel);  // odd: write in progress
  s.ordinal.store(ord, std::memory_order_relaxed);
  const std::int64_t t = steady_ns() - base_ns_.load(std::memory_order_relaxed);
  s.t_ns.store(static_cast<std::uint64_t>(t > 0 ? t : 0), std::memory_order_relaxed);
  s.meta.store((static_cast<std::uint64_t>(thread_claim().tid) << 8) |
                   static_cast<std::uint64_t>(kind),
               std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  char packed[48] = {};
  const std::size_t len = std::min(what.size(), kWhatBytes);
  std::memcpy(packed, what.data(), len);
  for (std::size_t i = 0; i < s.what.size(); ++i) {
    std::uint64_t word = 0;
    std::memcpy(&word, packed + i * 8, 8);
    s.what[i].store(word, std::memory_order_relaxed);
  }
  s.stamp.fetch_add(1, std::memory_order_release);  // even: published
  ring.seq.store(n + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::drain() const {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<FlightEvent> out;
  for (const auto& r : reg.rings) {
    const std::uint64_t n = r->seq.load(std::memory_order_acquire);
    const std::uint64_t m = std::min<std::uint64_t>(n, kRingEvents);
    for (std::uint64_t k = n - m; k < n; ++k) {
      const Slot& s = r->slots[k % kRingEvents];
      const std::uint64_t st1 = s.stamp.load(std::memory_order_acquire);
      if (st1 & 1) continue;  // mid-write
      FlightEvent e;
      e.ordinal = s.ordinal.load(std::memory_order_relaxed);
      e.t_ns = s.t_ns.load(std::memory_order_relaxed);
      const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
      e.tid = static_cast<std::uint32_t>(meta >> 8);
      e.kind = static_cast<EventKind>(meta & 0xff);
      e.a = s.a.load(std::memory_order_relaxed);
      e.b = s.b.load(std::memory_order_relaxed);
      char packed[48];
      for (std::size_t i = 0; i < s.what.size(); ++i) {
        const std::uint64_t word = s.what[i].load(std::memory_order_relaxed);
        std::memcpy(packed + i * 8, &word, 8);
      }
      packed[47] = '\0';
      e.what = packed;
      const std::uint64_t st2 = s.stamp.load(std::memory_order_acquire);
      if (st2 != st1 || e.ordinal == 0) continue;  // torn or never written
      out.push_back(std::move(e));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& x, const FlightEvent& y) { return x.ordinal < y.ordinal; });
  return out;
}

std::string FlightRecorder::events_json(std::size_t max_events) const {
  std::vector<FlightEvent> events = drain();
  const std::size_t first =
      (max_events && events.size() > max_events) ? events.size() - max_events : 0;
  std::string out = "[";
  for (std::size_t i = first; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i > first) out += ',';
    out += "{\"ord\":" + util::json_num(static_cast<double>(e.ordinal));
    out += ",\"t_s\":" + util::json_num(static_cast<double>(e.t_ns) * 1e-9);
    out += ",\"tid\":" + util::json_num(e.tid);
    out += ",\"kind\":" + util::json_quote(to_string(e.kind));
    out += ",\"a\":" + util::json_num(static_cast<double>(e.a));
    out += ",\"b\":" + util::json_num(static_cast<double>(e.b));
    out += ",\"what\":" + util::json_quote(e.what) + "}";
  }
  out += "]";
  return out;
}

void FlightRecorder::reset() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& r : reg.rings) {
    r->seq.store(0, std::memory_order_relaxed);
    for (Slot& s : r->slots) {
      s.stamp.store(0, std::memory_order_relaxed);
      s.ordinal.store(0, std::memory_order_relaxed);
    }
  }
  ordinal_.store(0, std::memory_order_relaxed);
  base_ns_.store(steady_ns(), std::memory_order_relaxed);
}

}  // namespace gnnmls::obs
