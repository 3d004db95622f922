// One tenant of the multi-session design service (src/svc/).
//
// A Session owns a full DesignFlow forked from the service's shared baseline:
// the flow is constructed from a copy of the raw benchmark design (prepare()
// is deterministic, so every fork starts structurally identical), then warmed
// by restoring the baseline's full-stage DesignDB snapshot — the PR-5/PR-7
// snapshot machinery doubling as cheap copy-on-write forking. A fresh fork is
// therefore already routed/timed and fingerprint-identical to the baseline;
// its first request pays only the incremental cost of its own mutation.
//
// Requests mutate and re-evaluate the session's private DB. Every *executed*
// request is appended to the session journal with its effective options
// (ft budget, retry cap, injected-fault outcome), which is the isolation
// proof obligation: replaying the journal into a fresh solo fork must land on
// a bit-identical state fingerprint, no matter what the neighbor sessions or
// the armed fault plan did in the meantime (tools/gnnmls_stress gates this).
//
// Failure accounting drives quarantine: a request whose waves ultimately fail
// (AggregateFlowError after rollback — the DB is bit-identical to its
// pre-wave state, so failures never corrupt) bumps the failure count; past
// the configured budget the session flips to kQuarantined, dumps a black box
// naming itself (ft::SessionLabelScope), and the manager rejects further
// requests with kSessionQuarantined while other sessions continue untouched.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/design_db.hpp"
#include "ft/policy.hpp"
#include "mls/flow.hpp"
#include "netlist/generators.hpp"

namespace gnnmls::svc {

// The request vocabulary of the service's wire protocol (ROADMAP item 1's
// mutate / query-PPA shapes; submit-netlist is the fork itself).
enum class Op : std::uint8_t {
  kEvaluate = 0,  // re-evaluate the current state (query-PPA)
  kFlagFlip,      // seeded MLS decision-vector replacement (mutate: flags)
  kEco,           // seeded buffer-pair splice behind a driver (mutate: netlist)
  kPoison,        // evaluate under an impossible pass budget (always fails)
  kHold,          // block on the request's Gate (test/stress backpressure)
};

const char* to_string(Op op);

enum class Outcome : std::uint8_t { kOk = 0, kFailed };

struct RequestOptions {
  // Shed order under overload: lowest priority evicted first.
  int priority = 0;
  // Per-pass wall-clock budget for this request; < 0 inherits the session
  // default (ServiceOptions::session_budget_s).
  double budget_s = -1.0;
  // Retry budget for this request; < 0 inherits the session default.
  int max_retries = -1;
};

// Open/wait barrier for Op::kHold — lets tests and the stress driver pin a
// worker inside a session while the queue fills behind it.
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool open_ = false;
};

struct Request {
  std::uint64_t id = 0;
  std::string session;
  Op op = Op::kEvaluate;
  std::uint64_t seed = 0;
  RequestOptions opts;
  std::shared_ptr<Gate> gate;  // kHold only
};

// What actually ran, with the options that were in force — sufficient to
// replay the session solo, bit-exactly.
struct JournalEntry {
  std::uint64_t id = 0;
  Op op = Op::kEvaluate;
  std::uint64_t seed = 0;
  double budget_s = 0.0;     // effective per-pass budget (0 = none)
  int max_retries = 0;       // effective retry budget
  bool injected = false;     // svc.request fault consumed this request
  Outcome outcome = Outcome::kOk;
  std::size_t retries = 0;   // waves re-dispatched (recovered faults)
};

enum class SessionState : std::uint8_t { kActive = 0, kQuarantined };

class Session {
 public:
  // Forks from `base` (+ optional warm full-stage snapshot of the baseline
  // DB). quarantine_after: failed requests tolerated before quarantine.
  Session(std::string name, const netlist::Design& base, const flow::FlowConfig& config,
          const core::DesignDB::Snapshot* warm, std::size_t quarantine_after);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& name() const { return name_; }
  SessionState state() const { return state_.load(std::memory_order_acquire); }
  bool quarantined() const { return state() == SessionState::kQuarantined; }

  // Executes one request on the calling thread. The manager serializes per
  // session, so no internal locking guards the flow; only state() is read
  // concurrently (admission checks). Returns the journal entry appended.
  JournalEntry execute(const Request& req);

  // Twin replay: runs a recorded journal against this (freshly forked)
  // session, honoring each entry's effective options and injected outcomes.
  // After replay, fingerprint() must equal the original's — the stress
  // driver's no-cross-contamination gate.
  void replay(const std::vector<JournalEntry>& journal);

  std::uint64_t fingerprint() const { return flow_.db().state_fingerprint(); }
  const std::vector<JournalEntry>& journal() const { return journal_; }

  std::size_t executed() const { return executed_; }
  std::size_t failures() const { return failures_; }
  // Rollbacks whose pre/post fingerprints disagreed — state leaked through a
  // failed wave. Must stay 0 (ci.sh greps the stress summary for it).
  std::size_t leaked() const { return leaked_; }

 private:
  JournalEntry run_entry(JournalEntry entry, const Request* req);
  void apply_mutation(Op op, std::uint64_t seed);
  void quarantine(const std::string& why);

  std::string name_;
  ft::FtOptions base_ft_;
  std::size_t quarantine_after_;
  mls::DesignFlow flow_;
  std::vector<std::uint8_t> flags_;  // current MLS decision vector
  std::atomic<SessionState> state_{SessionState::kActive};
  std::size_t executed_ = 0;
  std::size_t failures_ = 0;
  std::size_t leaked_ = 0;
  std::vector<JournalEntry> journal_;
};

}  // namespace gnnmls::svc
