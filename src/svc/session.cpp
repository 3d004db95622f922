#include "svc/session.hpp"

#include <exception>

#include "ft/blackbox.hpp"
#include "ft/error.hpp"
#include "ft/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace gnnmls::svc {

const char* to_string(Op op) {
  switch (op) {
    case Op::kEvaluate: return "evaluate";
    case Op::kFlagFlip: return "flag-flip";
    case Op::kEco: return "eco";
    case Op::kPoison: return "poison";
    case Op::kHold: return "hold";
  }
  return "?";
}

Session::Session(std::string name, const netlist::Design& base, const flow::FlowConfig& config,
                 const core::DesignDB::Snapshot* warm, std::size_t quarantine_after)
    : name_(std::move(name)),
      base_ft_(config.ft),
      quarantine_after_(quarantine_after),
      flow_(netlist::Design(base), config) {
  if (warm != nullptr) {
    // Warm fork: land on the baseline's routed/timed state without paying a
    // route. prepare() is deterministic, so the snapshot's design matches the
    // one this flow just prepared; restore() also advances the revision
    // counter past the snapshot watermark (see DesignDB::Snapshot::counter).
    flow_.db().restore(*warm);
  }
  flags_ = flow_.db().mls_flags();
}

JournalEntry Session::execute(const Request& req) {
  JournalEntry entry;
  entry.id = req.id;
  entry.op = req.op;
  entry.seed = req.seed;
  entry.budget_s = req.opts.budget_s >= 0.0 ? req.opts.budget_s : base_ft_.pass_budget_s;
  entry.max_retries = req.opts.max_retries >= 0 ? req.opts.max_retries : base_ft_.max_retries;
  return run_entry(entry, &req);
}

void Session::replay(const std::vector<JournalEntry>& journal) {
  for (const JournalEntry& e : journal) {
    JournalEntry twin = e;
    twin.outcome = Outcome::kOk;  // recomputed; compared by the caller
    twin.retries = 0;
    run_entry(twin, nullptr);
  }
}

void Session::apply_mutation(Op op, std::uint64_t seed) {
  switch (op) {
    case Op::kFlagFlip: {
      // Seeded MLS decision vector, ~6% of nets flagged: sparse enough that
      // the targeted-routing replay stays incremental, dense enough to move
      // the fingerprint on every flip.
      util::Rng rng(seed);
      const std::size_t nets = flow_.design().nl.num_nets();
      flags_.assign(nets, 0);
      for (std::size_t i = 0; i < nets; ++i)
        flags_[i] = (rng.next_u64() & 0xF) == 0 ? 1 : 0;
      break;
    }
    case Op::kEco: {
      // The buffer-splice ECO idiom (test_incremental.cpp): tap a seeded
      // driven net with a two-buffer chain. Journaled by the netlist, so the
      // next evaluate repairs via the ECO reroute path.
      netlist::Netlist& nl = flow_.db().design().nl;
      util::Rng rng(seed);
      std::vector<netlist::Id> driven;
      for (netlist::Id n = 0; n < nl.num_nets(); ++n)
        if (nl.net(n).driver != netlist::kNullId) driven.push_back(n);
      if (driven.empty()) break;
      const netlist::Id tapped = driven[rng.next_u64() % driven.size()];
      const auto coord = [&rng] { return 40.0f + static_cast<float>(rng.next_u64() % 240); };
      const netlist::Id b1 = nl.add_cell(tech::CellKind::kBuf, 0, coord(), coord());
      const netlist::Id b2 = nl.add_cell(tech::CellKind::kBuf, 0, coord(), coord());
      nl.add_sink(tapped, nl.input_pin(b1, 0));
      nl.connect(b1, 0, b2, 0);
      if (!flags_.empty() && flags_.size() < nl.num_nets()) flags_.resize(nl.num_nets(), 0);
      break;
    }
    case Op::kPoison:
      // Guarantee the poisoned evaluate schedules at least one wave: on a
      // fully fresh DB the manager would run zero passes and the watchdog
      // would have nothing to kill. Deterministic and journal-replayable.
      flow_.db().invalidate(core::Stage::kTiming);
      break;
    case Op::kEvaluate:
    case Op::kHold: break;
  }
}

JournalEntry Session::run_entry(JournalEntry entry, const Request* req) {
  // Any black box dumped while this request runs — including PassManager
  // wave dumps initiated deep inside evaluate() — names this session.
  ft::SessionLabelScope label(name_);

  if (entry.op == Op::kHold) {
    if (req != nullptr && req->gate) req->gate->wait();
    ++executed_;
    journal_.push_back(entry);
    return entry;
  }

  // svc.request trips here, before any session state is touched: the request
  // counts as a failure (it can drive quarantine) but the DB is untouched,
  // and the journal's `injected` flag lets the solo twin reproduce the
  // outcome without a fault plan of its own.
  if (!entry.injected) {
    try {
      GNNMLS_FAULT_POINT("svc.request");
    } catch (const ft::FlowError&) {
      entry.injected = true;
    }
  }
  if (entry.injected) {
    entry.outcome = Outcome::kFailed;
    ++executed_;
    ++failures_;
    journal_.push_back(entry);
    obs::Metrics::instance().counter("svc.session." + name_ + ".failed").add();
    if (failures_ > quarantine_after_ && !quarantined())
      quarantine("injected svc.request fault");
    return entry;
  }

  // Per-request recovery policy; restored afterwards so the next request
  // starts from the session defaults.
  ft::FtOptions ft = base_ft_;
  ft.pass_budget_s = entry.budget_s;
  ft.max_retries = entry.max_retries;
  if (entry.op == Op::kPoison) {
    // Impossible cooperative watchdog budget: the first wave always rolls
    // back and the run gives up — the deterministic failure generator behind
    // the quarantine tests and the stress driver's fault streams.
    ft.pass_budget_s = 1e-12;
    ft.max_retries = 0;
  }
  flow_.set_ft_options(ft);

  entry.outcome = Outcome::kOk;
  try {
    apply_mutation(entry.op, entry.seed);
    flow_.evaluate(flags_, flags_.empty() ? mls::Strategy::kNone : mls::Strategy::kSota);
  } catch (const ft::AggregateFlowError&) {
    // The failed wave rolled back: stages are bit-identical to their
    // pre-wave state (audited below), the mutation itself persists in the
    // journaled netlist/flags — exactly what the twin replay reproduces.
    entry.outcome = Outcome::kFailed;
  } catch (const std::exception& e) {
    util::log_warn("svc[", name_, "]: request ", entry.id, " failed: ", e.what());
    entry.outcome = Outcome::kFailed;
  }
  flow_.set_ft_options(base_ft_);

  const flow::RunReport& report = flow_.last_run_report();
  entry.retries = report.retries;
  for (const flow::RollbackRecord& rb : report.rollbacks)
    if (rb.pre_fp != rb.post_fp) ++leaked_;

  ++executed_;
  journal_.push_back(entry);
  obs::Metrics::instance().counter("svc.session." + name_ + ".executed").add();
  if (entry.outcome == Outcome::kFailed) {
    ++failures_;
    obs::Metrics::instance().counter("svc.session." + name_ + ".failed").add();
    if (failures_ > quarantine_after_ && !quarantined()) {
      std::string why = "request " + std::to_string(entry.id) + " (" +
                        std::string(to_string(entry.op)) + ") exceeded the failure budget";
      quarantine(why);
    }
  }
  return entry;
}

void Session::quarantine(const std::string& why) {
  try {
    GNNMLS_FAULT_POINT("svc.quarantine");
  } catch (const ft::FlowError&) {
    // Absorbed: the transition must complete even when chaos targets it — a
    // session stuck half-quarantined would stall its queue forever.
    util::log_warn("svc[", name_, "]: injected fault during quarantine absorbed");
  }
  state_.store(SessionState::kQuarantined, std::memory_order_release);
  obs::Metrics::instance().counter("svc.quarantines").add();
  obs::FlightRecorder::instance().record(obs::EventKind::kMark, "svc.quarantine", failures_);

  // Black box naming this session (via the label scope set by the caller)
  // and the passes that drove it over the budget.
  std::vector<ft::FlowError> failures;
  for (const flow::FailureRecord& f : flow_.last_run_report().failed)
    failures.emplace_back(ft::ErrorCode::kSessionQuarantined, f.pass, "",
                          flow_.db().revision(core::Stage::kNetlist),
                          /*retryable=*/false, f.error);
  if (failures.empty())
    failures.emplace_back(ft::ErrorCode::kSessionQuarantined, "svc", "",
                          flow_.db().revision(core::Stage::kNetlist),
                          /*retryable=*/false, why);
  ft::dump_black_box(failures, /*wave=*/0, /*attempt=*/failures_,
                     "session quarantined: " + name_ + " (" + why + ")");
  util::log_warn("svc[", name_, "]: quarantined after ", failures_, " failures: ", why);
}

}  // namespace gnnmls::svc
