#include "svc/service.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "ft/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace gnnmls::svc {

// NOLINTBEGIN(concurrency-mt-unsafe): getenv-only, resolved in the manager
// constructor before any worker spawns.
ServiceOptions resolve_svc(const ServiceOptions& base) {
  ServiceOptions out = base;
  if (const char* env = std::getenv("GNNMLS_SVC_WORKERS"); env != nullptr && *env != '\0') {
    const int n = std::atoi(env);
    if (n >= 1) out.workers = n;
  }
  if (const char* env = std::getenv("GNNMLS_SVC_QUEUE"); env != nullptr && *env != '\0') {
    const int n = std::atoi(env);
    if (n >= 1) out.queue_limit = static_cast<std::size_t>(n);
  }
  if (const char* env = std::getenv("GNNMLS_SVC_INFLIGHT"); env != nullptr && *env != '\0') {
    const int n = std::atoi(env);
    if (n >= 1) out.inflight_limit = static_cast<std::size_t>(n);
  }
  if (const char* env = std::getenv("GNNMLS_SVC_QUARANTINE_AFTER");
      env != nullptr && *env != '\0') {
    const int n = std::atoi(env);
    if (n >= 0) out.quarantine_after = static_cast<std::size_t>(n);
  }
  if (const char* env = std::getenv("GNNMLS_SVC_BUDGET_S"); env != nullptr && *env != '\0') {
    const double v = std::atof(env);
    if (v >= 0.0) out.session_budget_s = v;
  }
  return out;
}
// NOLINTEND(concurrency-mt-unsafe)

SessionManager::SessionManager(netlist::Design base, const flow::FlowConfig& config,
                               const ServiceOptions& options)
    : base_(std::move(base)), session_config_(config), options_(resolve_svc(options)) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.queue_limit < 1) options_.queue_limit = 1;
  if (options_.inflight_limit < 1) options_.inflight_limit = 1;
  // Per-session deadline budget rides the existing ft cooperative watchdog.
  if (options_.session_budget_s > 0.0)
    session_config_.ft.pass_budget_s = options_.session_budget_s;
  if (options_.warm_fork) {
    // One baseline evaluate under the caller's (un-budgeted) config: the
    // warm snapshot must exist even when session deadlines are tight.
    mls::DesignFlow baseline(netlist::Design(base_), config);
    baseline.evaluate_no_mls();
    static constexpr core::Stage kAll[] = {
        core::Stage::kNetlist, core::Stage::kPlacement, core::Stage::kRoutes,
        core::Stage::kTiming,  core::Stage::kPower,     core::Stage::kPdn,
        core::Stage::kTest};
    warm_ = std::make_unique<core::DesignDB::Snapshot>(baseline.db().snapshot(kAll));
  }
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) workers_.emplace_back([this] { worker_loop(); });
  util::log_info("svc: manager up (workers=", options_.workers, " queue=", options_.queue_limit,
                 " inflight=", options_.inflight_limit, " warm=", options_.warm_fork ? 1 : 0,
                 ")");
}

SessionManager::~SessionManager() { shutdown(); }

Session& SessionManager::fork_session(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_ || stopping_)
    throw ft::FlowError(ft::ErrorCode::kShuttingDown, "svc.fork", "", 0,
                        /*retryable=*/false, "fork rejected: service is draining");
  if (slots_.count(name) != 0) throw std::invalid_argument("session already exists: " + name);
  // Trips before any slot state exists, so a faulted fork leaves the manager
  // untouched and the caller can simply retry (the tests pin this).
  GNNMLS_FAULT_POINT("svc.fork");
  auto session = std::make_unique<Session>(name, base_, session_config_, warm_.get(),
                                           options_.quarantine_after);
  SessionSlot& slot = slots_[name];
  slot.session = std::move(session);
  obs::Metrics::instance().counter("svc.forks").add();
  util::log_info("svc: forked session ", name, " (fp=", slot.session->fingerprint(), ")");
  return *slot.session;
}

Session& SessionManager::session(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(name);
  if (it == slots_.end()) throw std::invalid_argument("unknown session: " + name);
  return *it->second.session;
}

bool SessionManager::has_session(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.count(name) != 0;
}

SubmitResult SessionManager::submit(Request req) {
  std::lock_guard<std::mutex> lock(mu_);
  ++submitted_;
  obs::Metrics::instance().counter("svc.submitted").add();
  const auto reject = [this](ft::ErrorCode code, std::string detail) {
    ++rejected_;
    obs::Metrics::instance().counter("svc.rejected").add();
    return SubmitResult{false, code, std::move(detail)};
  };
  if (draining_ || stopping_)
    return reject(ft::ErrorCode::kShuttingDown, "service is draining");
  auto it = slots_.find(req.session);
  if (it == slots_.end())
    return reject(ft::ErrorCode::kPrecondition, "unknown session: " + req.session);
  SessionSlot& slot = it->second;
  if (slot.session->quarantined())
    return reject(ft::ErrorCode::kSessionQuarantined,
                  "session is quarantined: " + req.session);
  try {
    GNNMLS_FAULT_POINT("svc.admit");
  } catch (const ft::FlowError&) {
    // An admission fault is a structured shed, never a crash: the request is
    // simply not admitted.
    return reject(ft::ErrorCode::kAdmissionRejected, "injected admission fault");
  }
  if (queued_ >= options_.queue_limit) {
    // Overload: shed the strictly-lowest-priority queued request if the
    // newcomer outranks it; otherwise the newcomer itself is rejected.
    // Victim choice is deterministic: lowest priority wins, ties go to the
    // youngest entry of the first session in name order.
    SessionSlot* vslot = nullptr;
    std::string vname;
    std::size_t vidx = 0;
    int vprio = req.opts.priority;
    for (auto& [name, s] : slots_) {
      for (std::size_t i = s.queue.size(); i-- > 0;) {
        if (s.queue[i].opts.priority < vprio) {
          vprio = s.queue[i].opts.priority;
          vslot = &s;
          vname = name;
          vidx = i;
        }
      }
    }
    if (vslot == nullptr)
      return reject(ft::ErrorCode::kAdmissionRejected,
                    "queue full (" + std::to_string(queued_) + " queued)");
    const Request victim = std::move(vslot->queue[vidx]);
    vslot->queue.erase(vslot->queue.begin() + static_cast<std::ptrdiff_t>(vidx));
    --queued_;
    ++shed_;
    shed_log_.push_back({victim.id, vname, victim.opts.priority,
                         ft::ErrorCode::kAdmissionRejected});
    obs::Metrics::instance().counter("svc.shed").add();
    util::log_info("svc: shed request ", victim.id, " (session ", vname, " prio ",
                   victim.opts.priority, ") for prio ", req.opts.priority);
  }
  const std::string name = req.session;
  slot.queue.push_back(std::move(req));
  ++queued_;
  obs::Metrics::instance().gauge("svc.queue_depth").set(static_cast<double>(queued_));
  if (!slot.busy && !slot.ready) {
    slot.ready = true;
    ready_.push_back(name);
  }
  work_cv_.notify_one();
  return SubmitResult{true, ft::ErrorCode::kUnknown, ""};
}

void SessionManager::drop_queue(const std::string& name, SessionSlot& slot) {
  while (!slot.queue.empty()) {
    const Request& r = slot.queue.front();
    shed_log_.push_back({r.id, name, r.opts.priority, ft::ErrorCode::kSessionQuarantined});
    ++shed_;
    obs::Metrics::instance().counter("svc.shed").add();
    slot.queue.pop_front();
    --queued_;
  }
}

void SessionManager::maybe_signal_idle() {
  if (queued_ == 0 && inflight_ == 0) idle_cv_.notify_all();
}

void SessionManager::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return stopping_ || (!ready_.empty() && inflight_ < options_.inflight_limit);
    });
    if (!ready_.empty() && inflight_ < options_.inflight_limit) {
      const std::string name = std::move(ready_.front());
      ready_.pop_front();
      auto it = slots_.find(name);
      if (it == slots_.end()) continue;
      SessionSlot& slot = it->second;
      slot.ready = false;
      if (slot.busy || slot.queue.empty()) {
        maybe_signal_idle();
        continue;
      }
      const Request req = std::move(slot.queue.front());
      slot.queue.pop_front();
      --queued_;
      slot.busy = true;
      ++inflight_;
      obs::Metrics::instance().gauge("svc.queue_depth").set(static_cast<double>(queued_));
      obs::Metrics::instance().gauge("svc.inflight").set(static_cast<double>(inflight_));
      lock.unlock();
      slot.session->execute(req);
      lock.lock();
      slot.busy = false;
      --inflight_;
      ++executed_;
      obs::Metrics::instance().counter("svc.executed").add();
      obs::Metrics::instance().gauge("svc.inflight").set(static_cast<double>(inflight_));
      if (slot.session->quarantined()) {
        // The quarantined session's backlog is dropped with structured
        // outcomes; every other session's queue is untouched.
        drop_queue(name, slot);
      } else if (!slot.queue.empty() && !slot.ready) {
        slot.ready = true;
        ready_.push_back(name);
        work_cv_.notify_one();
      }
      maybe_signal_idle();
      continue;
    }
    if (stopping_) return;
  }
}

void SessionManager::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queued_ == 0 && inflight_ == 0; });
}

void SessionManager::drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  wait_idle();
}

void SessionManager::shutdown() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
}

std::size_t SessionManager::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}
std::size_t SessionManager::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}
std::uint64_t SessionManager::submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_;
}
std::uint64_t SessionManager::executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}
std::uint64_t SessionManager::shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_;
}
std::uint64_t SessionManager::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}
std::vector<ShedRecord> SessionManager::shed_log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_log_;
}

}  // namespace gnnmls::svc
