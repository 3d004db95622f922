// Multi-session design service properties (src/svc/): warm forks are
// fingerprint-identical to the baseline, admission control is bounded and
// structured (never blocking), priority shed evicts lowest first, a
// quarantined session's neighbors keep bit-identical solo-twin state, drain
// rejects new work with kShuttingDown, and every svc.* fault site fails
// cleanly (no half-created sessions, no unaccounted requests).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/design_db.hpp"
#include "ft/blackbox.hpp"
#include "ft/error.hpp"
#include "ft/fault_plan.hpp"
#include "netlist/generators.hpp"
#include "svc/service.hpp"
#include "svc/session.hpp"
#include "util/log.hpp"

namespace {

using namespace gnnmls;

flow::FlowConfig make_config() {
  util::set_log_level(util::LogLevel::kError);
  flow::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = false;
  return cfg;
}

netlist::Design base_design() { return netlist::make_maeri_16pe(); }

svc::ServiceOptions small_opts() {
  svc::ServiceOptions o;
  o.workers = 2;
  o.queue_limit = 16;
  o.inflight_limit = 4;
  o.quarantine_after = 1;
  return o;
}

svc::Request make_req(std::uint64_t id, const std::string& session, svc::Op op,
                      std::uint64_t seed = 0, int priority = 0) {
  svc::Request r;
  r.id = id;
  r.session = session;
  r.op = op;
  r.seed = seed;
  r.opts.priority = priority;
  return r;
}

void wait_for_inflight(svc::SessionManager& mgr, std::size_t n) {
  for (int spin = 0; spin < 2000 && mgr.inflight() < n; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(mgr.inflight(), n);
}

// The plan is process-global; every test starts and ends disarmed.
class Svc : public ::testing::Test {
 protected:
  void SetUp() override { ft::FaultPlan::instance().reset(); }
  void TearDown() override { ft::FaultPlan::instance().reset(); }
};

// ---- forking ----------------------------------------------------------------

TEST_F(Svc, WarmForksAreFingerprintIdenticalToEachOther) {
  svc::SessionManager mgr(base_design(), make_config(), small_opts());
  svc::Session& a = mgr.fork_session("a");
  svc::Session& b = mgr.fork_session("b");
  ASSERT_NE(mgr.warm_snapshot(), nullptr);
  // Both forks restored the same baseline snapshot: identical start state.
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_THROW(mgr.fork_session("a"), std::invalid_argument);
}

TEST_F(Svc, SnapshotCounterWatermarkCoversRestoredRevisions) {
  // The cross-DB restore must advance the fork's revision counter past the
  // snapshot's: a later commit may never reissue a revision number the
  // restored tags already hold (a stale stage could alias a fresh built_from
  // link and be skipped as fresh).
  svc::SessionManager mgr(base_design(), make_config(), small_opts());
  svc::Session& a = mgr.fork_session("a");
  const core::DesignDB::Snapshot* snap = mgr.warm_snapshot();
  ASSERT_NE(snap, nullptr);
  std::uint64_t max_rev = 0;
  for (const core::StageTag& t : snap->tags) max_rev = std::max(max_rev, t.revision);
  EXPECT_GT(max_rev, 0u);
  EXPECT_GE(snap->counter, max_rev);
  // A mutation + evaluate on the fork succeeds and lands on a state distinct
  // from the warm baseline (revisions moved forward, not aliased).
  const std::uint64_t fp_fork = a.fingerprint();
  ASSERT_TRUE(mgr.submit(make_req(1, "a", svc::Op::kFlagFlip, 42)).accepted);
  mgr.wait_idle();
  EXPECT_EQ(a.journal().size(), 1u);
  EXPECT_EQ(a.journal()[0].outcome, svc::Outcome::kOk);
  EXPECT_NE(a.fingerprint(), fp_fork);
}

// ---- admission control ------------------------------------------------------

TEST_F(Svc, AdmissionRejectsStructurallyWhenQueueFull) {
  svc::ServiceOptions o = small_opts();
  o.workers = 1;
  o.inflight_limit = 1;
  o.queue_limit = 2;
  svc::SessionManager mgr(base_design(), make_config(), o);
  mgr.fork_session("a");

  auto gate = std::make_shared<svc::Gate>();
  svc::Request hold = make_req(1, "a", svc::Op::kHold);
  hold.gate = gate;
  ASSERT_TRUE(mgr.submit(std::move(hold)).accepted);
  wait_for_inflight(mgr, 1);  // the worker is pinned inside the session

  EXPECT_TRUE(mgr.submit(make_req(2, "a", svc::Op::kEvaluate)).accepted);
  EXPECT_TRUE(mgr.submit(make_req(3, "a", svc::Op::kEvaluate)).accepted);
  // Queue full, same priority: structured rejection, immediately.
  const svc::SubmitResult res = mgr.submit(make_req(4, "a", svc::Op::kEvaluate));
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(res.error, ft::ErrorCode::kAdmissionRejected);

  gate->open();
  mgr.drain();
  EXPECT_EQ(mgr.submitted(), 4u);
  EXPECT_EQ(mgr.executed(), 3u);
  EXPECT_EQ(mgr.rejected(), 1u);
  EXPECT_EQ(mgr.shed(), 0u);
}

TEST_F(Svc, OverloadShedsLowestPriorityFirst) {
  svc::ServiceOptions o = small_opts();
  o.workers = 1;
  o.inflight_limit = 1;
  o.queue_limit = 2;
  svc::SessionManager mgr(base_design(), make_config(), o);
  mgr.fork_session("a");

  auto gate = std::make_shared<svc::Gate>();
  svc::Request hold = make_req(1, "a", svc::Op::kHold);
  hold.gate = gate;
  ASSERT_TRUE(mgr.submit(std::move(hold)).accepted);
  wait_for_inflight(mgr, 1);

  ASSERT_TRUE(mgr.submit(make_req(2, "a", svc::Op::kEvaluate, 0, /*priority=*/0)).accepted);
  ASSERT_TRUE(mgr.submit(make_req(3, "a", svc::Op::kEvaluate, 0, /*priority=*/1)).accepted);
  // Queue full. A higher-priority request evicts the lowest (id 2).
  EXPECT_TRUE(mgr.submit(make_req(4, "a", svc::Op::kEvaluate, 0, /*priority=*/2)).accepted);
  const std::vector<svc::ShedRecord> log = mgr.shed_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].id, 2u);
  EXPECT_EQ(log[0].priority, 0);
  EXPECT_EQ(log[0].reason, ft::ErrorCode::kAdmissionRejected);
  // An equal-priority request cannot evict anyone: rejected.
  const svc::SubmitResult res = mgr.submit(make_req(5, "a", svc::Op::kEvaluate, 0, 1));
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(res.error, ft::ErrorCode::kAdmissionRejected);

  gate->open();
  mgr.drain();
  // submitted == executed + shed + rejected.
  EXPECT_EQ(mgr.submitted(), 5u);
  EXPECT_EQ(mgr.executed(), 3u);
  EXPECT_EQ(mgr.shed(), 1u);
  EXPECT_EQ(mgr.rejected(), 1u);
}

// ---- quarantine -------------------------------------------------------------

TEST_F(Svc, QuarantineIsolatesFailingSessionAndNamesItInTheDump) {
  const std::string dump_path = "flight_svc_test.json";
  ::setenv("GNNMLS_FLIGHT_OUT", dump_path.c_str(), 1);

  svc::ServiceOptions o = small_opts();
  o.quarantine_after = 1;  // second failure quarantines
  svc::SessionManager mgr(base_design(), make_config(), o);
  mgr.fork_session("sick");
  mgr.fork_session("healthy");

  // Two poison requests exceed the failure budget; healthy work interleaves.
  ASSERT_TRUE(mgr.submit(make_req(1, "sick", svc::Op::kPoison)).accepted);
  ASSERT_TRUE(mgr.submit(make_req(2, "healthy", svc::Op::kFlagFlip, 7)).accepted);
  ASSERT_TRUE(mgr.submit(make_req(3, "sick", svc::Op::kPoison)).accepted);
  ASSERT_TRUE(mgr.submit(make_req(4, "healthy", svc::Op::kEco, 9)).accepted);
  mgr.wait_idle();

  EXPECT_TRUE(mgr.session("sick").quarantined());
  EXPECT_FALSE(mgr.session("healthy").quarantined());

  // Further requests against the quarantined session: structured rejection.
  const svc::SubmitResult res = mgr.submit(make_req(5, "sick", svc::Op::kEvaluate));
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(res.error, ft::ErrorCode::kSessionQuarantined);

  // The black box names the quarantined session.
  std::ifstream f(dump_path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string dump = ss.str();
  EXPECT_NE(dump.find("\"session\":\"sick\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("session-quarantined"), std::string::npos) << dump;
  ::unsetenv("GNNMLS_FLIGHT_OUT");
  std::remove(dump_path.c_str());

  // The healthy session's state is bit-identical to its solo twin: zero
  // cross-contamination from the neighbor's failures.
  svc::Session twin("healthy", mgr.base_design(), mgr.session_config(), mgr.warm_snapshot(),
                    o.quarantine_after);
  twin.replay(mgr.session("healthy").journal());
  EXPECT_EQ(twin.fingerprint(), mgr.session("healthy").fingerprint());
  mgr.drain();
}

TEST_F(Svc, QuarantineDropsBacklogWithStructuredOutcomes) {
  svc::ServiceOptions o = small_opts();
  o.workers = 1;
  o.inflight_limit = 1;
  o.quarantine_after = 0;  // first failure quarantines
  svc::SessionManager mgr(base_design(), make_config(), o);
  mgr.fork_session("a");

  auto gate = std::make_shared<svc::Gate>();
  svc::Request hold = make_req(1, "a", svc::Op::kHold);
  hold.gate = gate;
  ASSERT_TRUE(mgr.submit(std::move(hold)).accepted);
  wait_for_inflight(mgr, 1);
  ASSERT_TRUE(mgr.submit(make_req(2, "a", svc::Op::kPoison)).accepted);
  ASSERT_TRUE(mgr.submit(make_req(3, "a", svc::Op::kEvaluate)).accepted);
  ASSERT_TRUE(mgr.submit(make_req(4, "a", svc::Op::kEvaluate)).accepted);
  gate->open();
  mgr.drain();

  EXPECT_TRUE(mgr.session("a").quarantined());
  // hold + poison executed; the backlog (3, 4) was dropped as shed with a
  // kSessionQuarantined reason — and the accounting invariant holds.
  EXPECT_EQ(mgr.executed(), 2u);
  EXPECT_EQ(mgr.shed(), 2u);
  const std::vector<svc::ShedRecord> log = mgr.shed_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].reason, ft::ErrorCode::kSessionQuarantined);
  EXPECT_EQ(mgr.submitted(), mgr.executed() + mgr.shed() + mgr.rejected());
}

// ---- drain / shutdown -------------------------------------------------------

TEST_F(Svc, DrainCompletesInFlightAndRejectsNewWork) {
  svc::SessionManager mgr(base_design(), make_config(), small_opts());
  mgr.fork_session("a");
  ASSERT_TRUE(mgr.submit(make_req(1, "a", svc::Op::kFlagFlip, 5)).accepted);
  mgr.drain();
  EXPECT_EQ(mgr.executed(), 1u);

  const svc::SubmitResult res = mgr.submit(make_req(2, "a", svc::Op::kEvaluate));
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(res.error, ft::ErrorCode::kShuttingDown);
  try {
    mgr.fork_session("b");
    FAIL() << "fork after drain must throw";
  } catch (const ft::FlowError& e) {
    EXPECT_EQ(e.code(), ft::ErrorCode::kShuttingDown);
    EXPECT_FALSE(e.retryable());
  }
  mgr.shutdown();
  mgr.shutdown();  // idempotent
}

// ---- concurrent fork/mutate/restore twin equality (satellite; TSan too) -----

TEST_F(Svc, ConcurrentSessionsMatchSoloRunTwins) {
  svc::ServiceOptions o = small_opts();
  o.workers = 2;
  svc::SessionManager mgr(base_design(), make_config(), o);
  mgr.fork_session("s0");
  mgr.fork_session("s1");

  // Interleaved seeded mutation streams, both sessions live at once.
  std::uint64_t id = 1;
  for (int r = 0; r < 3; ++r) {
    for (int s = 0; s < 2; ++s) {
      const std::string name = "s" + std::to_string(s);
      const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(r * 2 + s);
      const svc::Op op = r == 0 ? svc::Op::kFlagFlip : (s == 0 ? svc::Op::kEco : svc::Op::kFlagFlip);
      ASSERT_TRUE(mgr.submit(make_req(id++, name, op, seed)).accepted);
    }
  }
  mgr.drain();

  for (const std::string& name : {std::string("s0"), std::string("s1")}) {
    svc::Session& live = mgr.session(name);
    EXPECT_EQ(live.journal().size(), 3u);
    EXPECT_EQ(live.leaked(), 0u);
    svc::Session twin(name, mgr.base_design(), mgr.session_config(), mgr.warm_snapshot(),
                      o.quarantine_after);
    twin.replay(live.journal());
    EXPECT_EQ(twin.fingerprint(), live.fingerprint()) << "session " << name;
  }
  // Distinct streams must land on distinct states (the twin check would be
  // vacuous if every session converged to one fingerprint).
  EXPECT_NE(mgr.session("s0").fingerprint(), mgr.session("s1").fingerprint());
}

// ---- svc fault sites --------------------------------------------------------

TEST_F(Svc, AdmitFaultIsAStructuredRejection) {
  svc::SessionManager mgr(base_design(), make_config(), small_opts());
  mgr.fork_session("a");
  ft::FaultPlan::instance().arm("svc.admit");
  const svc::SubmitResult res = mgr.submit(make_req(1, "a", svc::Op::kEvaluate));
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(res.error, ft::ErrorCode::kAdmissionRejected);
  EXPECT_EQ(ft::FaultPlan::instance().tripped(), 1u);
  // One-shot: the retry is admitted and executes.
  EXPECT_TRUE(mgr.submit(make_req(2, "a", svc::Op::kEvaluate)).accepted);
  mgr.drain();
  EXPECT_EQ(mgr.executed(), 1u);
  EXPECT_EQ(mgr.submitted(), mgr.executed() + mgr.shed() + mgr.rejected());
}

TEST_F(Svc, ForkFaultLeavesNoHalfCreatedSession) {
  svc::SessionManager mgr(base_design(), make_config(), small_opts());
  ft::FaultPlan::instance().arm("svc.fork");
  try {
    mgr.fork_session("a");
    FAIL() << "armed fork must throw";
  } catch (const ft::FlowError& e) {
    EXPECT_EQ(e.code(), ft::ErrorCode::kInjectedFault);
  }
  EXPECT_FALSE(mgr.has_session("a"));
  // Clean retry: the one-shot fault is consumed, the fork succeeds.
  svc::Session& a = mgr.fork_session("a");
  EXPECT_EQ(a.name(), "a");
}

TEST_F(Svc, RequestFaultCountsAsFailureAndReplaysFromTheJournal) {
  svc::SessionManager mgr(base_design(), make_config(), small_opts());
  svc::Session& a = mgr.fork_session("a");
  const std::uint64_t fp_before = a.fingerprint();
  ft::FaultPlan::instance().arm("svc.request");
  ASSERT_TRUE(mgr.submit(make_req(1, "a", svc::Op::kFlagFlip, 3)).accepted);
  mgr.wait_idle();
  ASSERT_EQ(a.journal().size(), 1u);
  EXPECT_TRUE(a.journal()[0].injected);
  EXPECT_EQ(a.journal()[0].outcome, svc::Outcome::kFailed);
  EXPECT_EQ(a.failures(), 1u);
  // The fault fired before any state was touched.
  EXPECT_EQ(a.fingerprint(), fp_before);

  // Twin replay without a fault plan reproduces the injected failure.
  ft::FaultPlan::instance().reset();
  svc::Session twin("a", mgr.base_design(), mgr.session_config(), mgr.warm_snapshot(),
                    small_opts().quarantine_after);
  twin.replay(a.journal());
  EXPECT_EQ(twin.fingerprint(), a.fingerprint());
  EXPECT_EQ(twin.journal()[0].outcome, svc::Outcome::kFailed);
  mgr.drain();
}

TEST_F(Svc, QuarantineFaultIsAbsorbedAndTheTransitionCompletes) {
  svc::ServiceOptions o = small_opts();
  o.quarantine_after = 0;
  svc::SessionManager mgr(base_design(), make_config(), o);
  mgr.fork_session("a");
  ft::FaultPlan::instance().arm("svc.quarantine");
  ASSERT_TRUE(mgr.submit(make_req(1, "a", svc::Op::kPoison)).accepted);
  mgr.wait_idle();
  EXPECT_EQ(ft::FaultPlan::instance().tripped(), 1u);
  EXPECT_TRUE(mgr.session("a").quarantined());  // transition completed anyway
  mgr.drain();
}

// ---- black-box session attribution ------------------------------------------

TEST(SvcBlackBox, SessionLabelAppearsInDumpJson) {
  std::string json = ft::black_box_json({}, 0, 0, "no label");
  EXPECT_NE(json.find("\"session\":\"\""), std::string::npos);
  {
    ft::SessionLabelScope scope("tenant-42");
    json = ft::black_box_json({}, 1, 0, "labeled");
    EXPECT_NE(json.find("\"session\":\"tenant-42\""), std::string::npos);
  }
  json = ft::black_box_json({}, 2, 0, "after scope");
  EXPECT_NE(json.find("\"session\":\"\""), std::string::npos);
}

}  // namespace
