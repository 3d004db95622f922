// SessionManager: the long-lived multi-session design service (ROADMAP
// item 1 — the "millions of users" story's process-level core).
//
// One manager owns a shared baseline (raw benchmark design + flow config +
// an optional warm full-stage DesignDB snapshot) and hosts N isolated
// Sessions forked from it. Requests flow through a bounded admission stage
// into per-session FIFO queues, and a fixed worker pool drains sessions —
// one request per session at a time, so each session's stream is serialized
// (its journal is a total order) while different sessions run concurrently.
//
// Robustness contracts, each gated by tests / tools/gnnmls_stress / ci.sh:
//   * Admission never blocks: a full queue either sheds the lowest-priority
//     queued request (when the newcomer outranks it) or returns a structured
//     kAdmissionRejected — callers always get an answer immediately.
//   * Fault quarantine: a session over its failure budget flips to
//     kQuarantined (black-box dump naming it), its queue is dropped with
//     structured kSessionQuarantined outcomes, and every other session keeps
//     running on its own DB — no cross-contamination by construction, and
//     the stress driver proves it by fingerprint against solo-run twins.
//   * Drain/shutdown: drain() stops admission (kShuttingDown) and completes
//     everything already accepted; shutdown() additionally joins the pool.
//
// Accounting invariant (checked by `gnnmls_report check-svc`):
//   submitted == executed + shed + rejected   (once idle)
//
// Env knobs (applied over the constructor's options; see resolve_svc):
//   GNNMLS_SVC_WORKERS, GNNMLS_SVC_QUEUE, GNNMLS_SVC_INFLIGHT,
//   GNNMLS_SVC_QUARANTINE_AFTER, GNNMLS_SVC_BUDGET_S
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/design_db.hpp"
#include "ft/error.hpp"
#include "mls/flow.hpp"
#include "netlist/generators.hpp"
#include "svc/session.hpp"

namespace gnnmls::svc {

struct ServiceOptions {
  // Worker pool size (sessions executing concurrently is additionally capped
  // by inflight_limit).
  int workers = 2;
  // Max requests queued across all sessions; admission sheds/rejects beyond.
  std::size_t queue_limit = 64;
  // Max requests executing at once (the in-flight budget): workers leave
  // excess ready sessions queued rather than dispatching past it.
  std::size_t inflight_limit = 8;
  // Failed requests a session tolerates before quarantine.
  std::size_t quarantine_after = 2;
  // Default per-pass deadline budget for session requests (seconds; 0 =
  // none). Rides the existing ft cooperative watchdog.
  double session_budget_s = 0.0;
  // Evaluate the baseline once and snapshot every stage so forks start
  // routed/timed (and fingerprint-identical to the baseline).
  bool warm_fork = true;
};

// `base` with the GNNMLS_SVC_* environment overrides applied.
ServiceOptions resolve_svc(const ServiceOptions& base);

// Admission answer. Structured, immediate, never blocks.
struct SubmitResult {
  bool accepted = false;
  ft::ErrorCode error = ft::ErrorCode::kUnknown;  // meaningful when !accepted
  std::string detail;
};

// A request evicted after admission (priority shed or quarantine drop).
struct ShedRecord {
  std::uint64_t id = 0;
  std::string session;
  int priority = 0;
  ft::ErrorCode reason = ft::ErrorCode::kAdmissionRejected;
};

class SessionManager {
 public:
  SessionManager(netlist::Design base, const flow::FlowConfig& config,
                 const ServiceOptions& options);
  ~SessionManager();
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Forks a new isolated session from the baseline. Throws
  // ft::FlowError(kShuttingDown) when draining, std::invalid_argument on a
  // duplicate name; an injected svc.fork fault propagates with no session
  // half-created (retry-safe).
  Session& fork_session(const std::string& name);
  Session& session(const std::string& name);
  bool has_session(const std::string& name) const;

  SubmitResult submit(Request req);

  // Blocks until every accepted request has executed (admission stays open).
  void wait_idle();
  // Stops admission (subsequent submits get kShuttingDown), completes all
  // in-flight and queued work.
  void drain();
  // drain() + stop and join the worker pool. Idempotent; the destructor
  // calls it.
  void shutdown();

  // ---- accounting (stable once idle) --------------------------------------
  std::size_t queued() const;
  std::size_t inflight() const;
  std::uint64_t submitted() const;
  std::uint64_t executed() const;
  std::uint64_t shed() const;      // evicted after admission (priority/quarantine)
  std::uint64_t rejected() const;  // refused at admission
  std::vector<ShedRecord> shed_log() const;

  // Baseline pieces for constructing solo-run twins (stress driver, tests).
  const netlist::Design& base_design() const { return base_; }
  const flow::FlowConfig& session_config() const { return session_config_; }
  const core::DesignDB::Snapshot* warm_snapshot() const { return warm_.get(); }
  const ServiceOptions& options() const { return options_; }

 private:
  struct SessionSlot {
    std::unique_ptr<Session> session;
    std::deque<Request> queue;
    bool busy = false;   // a worker is executing this session
    bool ready = false;  // queued in ready_
  };

  void worker_loop();
  // Drops a quarantined session's remaining queue (mu_ held).
  void drop_queue(const std::string& name, SessionSlot& slot);
  void maybe_signal_idle();  // mu_ held

  netlist::Design base_;
  flow::FlowConfig session_config_;  // config + session_budget_s applied
  ServiceOptions options_;
  std::unique_ptr<core::DesignDB::Snapshot> warm_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: ready work or stopping
  std::condition_variable idle_cv_;  // drain/wait_idle: everything settled
  std::map<std::string, SessionSlot> slots_;
  std::deque<std::string> ready_;  // sessions with queued work, no worker on them
  std::size_t queued_ = 0;
  std::size_t inflight_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  std::uint64_t submitted_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t rejected_ = 0;
  std::vector<ShedRecord> shed_log_;
};

}  // namespace gnnmls::svc
