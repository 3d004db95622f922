// Fault-tolerance properties: error taxonomy, the deterministic fault
// plan, all-failure wave collection, and the transactional recovery loop —
// a rolled-back DB is bit-identical (state_fingerprint) to its pre-wave
// self, and a recovered run's PPA row is bit-identical to a never-faulted
// twin's (or completes with metrics.degraded set where a fallback path is
// the contract).
#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/design_db.hpp"
#include "flow/pass_manager.hpp"
#include "ft/error.hpp"
#include "ft/fault_plan.hpp"
#include "mls/flow.hpp"
#include "mls/gnnmls.hpp"
#include "netlist/generators.hpp"
#include "util/log.hpp"

namespace {

using namespace gnnmls;
using netlist::Id;

mls::FlowConfig make_config(bool run_pdn = false, bool strict = false) {
  util::set_log_level(util::LogLevel::kError);
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = run_pdn;
  cfg.strict_checks = strict;
  return cfg;
}

mls::DesignFlow make_flow(const mls::FlowConfig& cfg) {
  return mls::DesignFlow(netlist::make_maeri_16pe(), cfg);
}

// Bit-identical PPA rows (same contract as test_flow_passes.cpp): the
// recovered run must reproduce every reported field exactly, not "close".
void expect_same_ppa(const mls::FlowMetrics& a, const mls::FlowMetrics& b) {
  EXPECT_DOUBLE_EQ(a.wl_m, b.wl_m);
  EXPECT_DOUBLE_EQ(a.wns_ps, b.wns_ps);
  EXPECT_DOUBLE_EQ(a.tns_ns, b.tns_ns);
  EXPECT_EQ(a.violating, b.violating);
  EXPECT_EQ(a.endpoints, b.endpoints);
  EXPECT_EQ(a.mls_nets, b.mls_nets);
  EXPECT_EQ(a.f2f_vias, b.f2f_vias);
  EXPECT_DOUBLE_EQ(a.power_mw, b.power_mw);
  EXPECT_DOUBLE_EQ(a.ls_power_mw, b.ls_power_mw);
  EXPECT_DOUBLE_EQ(a.eff_freq_mhz, b.eff_freq_mhz);
  EXPECT_DOUBLE_EQ(a.ir_drop_pct, b.ir_drop_pct);
  EXPECT_DOUBLE_EQ(a.pdn_util, b.pdn_util);
  EXPECT_EQ(a.overflow_gcells, b.overflow_gcells);
}

// The plan is process-global; every test starts and ends disarmed.
class Ft : public ::testing::Test {
 protected:
  void SetUp() override { ft::FaultPlan::instance().reset(); }
  void TearDown() override { ft::FaultPlan::instance().reset(); }
};

// ---- error taxonomy ---------------------------------------------------------

TEST(FlowErrorTaxonomy, WrapClassifiesStandardExceptions) {
  const auto wrap = [](std::exception_ptr p) {
    return ft::FlowError::wrap(p, "sta", "timing", 7);
  };

  const ft::FlowError oom = wrap(std::make_exception_ptr(std::bad_alloc()));
  EXPECT_EQ(oom.code(), ft::ErrorCode::kResourceExhausted);
  EXPECT_FALSE(oom.retryable());
  EXPECT_EQ(oom.pass(), "sta");
  EXPECT_EQ(oom.stage(), "timing");
  EXPECT_EQ(oom.db_revision(), 7u);

  const ft::FlowError pre = wrap(std::make_exception_ptr(std::logic_error("stale graph")));
  EXPECT_EQ(pre.code(), ft::ErrorCode::kPrecondition);
  EXPECT_FALSE(pre.retryable());

  const ft::FlowError run = wrap(std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_EQ(run.code(), ft::ErrorCode::kPassFailed);
  EXPECT_FALSE(run.retryable());
  EXPECT_NE(std::string(run.what()).find("boom"), std::string::npos);
}

TEST(FlowErrorTaxonomy, WrapPassesNestedFlowErrorsThrough) {
  // Thrown with blank pass/stage (the fault plan does this): the boundary
  // context fills in, code and retryability survive.
  const ft::FlowError inner(ft::ErrorCode::kInjectedFault, "", "", 0, /*retryable=*/true,
                            "injected");
  const ft::FlowError filled =
      ft::FlowError::wrap(std::make_exception_ptr(inner), "route", "routes", 11);
  EXPECT_EQ(filled.code(), ft::ErrorCode::kInjectedFault);
  EXPECT_TRUE(filled.retryable());
  EXPECT_EQ(filled.pass(), "route");
  EXPECT_EQ(filled.stage(), "routes");

  // Already-attributed errors keep their own context.
  const ft::FlowError owned(ft::ErrorCode::kPassFailed, "power", "power", 3, true, "slow");
  const ft::FlowError kept =
      ft::FlowError::wrap(std::make_exception_ptr(owned), "route", "routes", 11);
  EXPECT_EQ(kept.pass(), "power");
  EXPECT_EQ(kept.stage(), "power");
  EXPECT_EQ(kept.code(), ft::ErrorCode::kPassFailed);
}

TEST(FlowErrorTaxonomy, AggregateIsRetryableOnlyWhenEveryMemberIs) {
  std::vector<ft::FlowError> both;
  both.emplace_back(ft::ErrorCode::kInjectedFault, "power", "power", 1, true, "a");
  both.emplace_back(ft::ErrorCode::kPassFailed, "pdn", "pdn", 1, true, "b");
  const ft::AggregateFlowError all_retryable(both);
  EXPECT_TRUE(all_retryable.retryable());
  EXPECT_EQ(all_retryable.errors().size(), 2u);
  const std::string what = all_retryable.what();
  EXPECT_NE(what.find("pass=power"), std::string::npos);
  EXPECT_NE(what.find("pass=pdn"), std::string::npos);

  both.emplace_back(ft::ErrorCode::kPrecondition, "sta", "timing", 1, false, "c");
  EXPECT_FALSE(ft::AggregateFlowError(both).retryable());
  EXPECT_FALSE(ft::AggregateFlowError({}).retryable());
}

// ---- fault plan -------------------------------------------------------------

TEST_F(Ft, FaultPlanTripsOnNthVisitOneShot) {
  ft::FaultPlan& plan = ft::FaultPlan::instance();
  plan.arm_spec("route.net:3");
  EXPECT_TRUE(plan.armed());
  plan.visit("route.net");
  plan.visit("route.net");
  EXPECT_EQ(plan.tripped(), 0u);
  EXPECT_THROW(plan.visit("route.net"), ft::FlowError);
  EXPECT_EQ(plan.tripped(), 1u);
  // One-shot: the retried pass sails through the same site.
  EXPECT_FALSE(plan.armed());
  plan.visit("route.net");
  EXPECT_EQ(plan.tripped(), 1u);
}

TEST_F(Ft, FaultPlanArmIsRelativeToHitsAlreadySeen) {
  ft::FaultPlan& plan = ft::FaultPlan::instance();
  plan.visit("sta.run");
  plan.visit("sta.run");
  plan.arm("sta.run", 1);  // the NEXT visit, not the first-ever
  EXPECT_THROW(plan.visit("sta.run"), ft::FlowError);
}

TEST_F(Ft, FaultPlanRejectsUnknownSitesAndBadSpecs) {
  ft::FaultPlan& plan = ft::FaultPlan::instance();
  EXPECT_THROW(plan.arm("bogus.site"), std::invalid_argument);
  EXPECT_THROW(plan.arm("route.net", 0), std::invalid_argument);
  EXPECT_THROW(plan.arm_spec("route.net:zap"), std::invalid_argument);
  EXPECT_FALSE(plan.armed());
  EXPECT_TRUE(ft::FaultPlan::find_site("dft.insert") != nullptr);
  EXPECT_TRUE(ft::FaultPlan::find_site("nope") == nullptr);
}

TEST_F(Ft, UnknownSiteErrorListsEveryValidSite) {
  // GNNMLS_FAULT / --inject-flow typos must come back with the full menu,
  // not a bare "unknown site" (satellite: operator-debuggable chaos specs).
  try {
    ft::FaultPlan::instance().arm("route.nte");  // typo'd route.net
    FAIL() << "unknown site must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown fault site: route.nte"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid sites:"), std::string::npos) << msg;
    // Anchors spanning the table, from its first entry to its last.
    EXPECT_NE(msg.find("route.net"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sta.run"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dft.insert"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pdn.synthesize"), std::string::npos) << msg;
    EXPECT_NE(msg.find("check.run"), std::string::npos) << msg;
    EXPECT_NE(msg.find("decide.infer"), std::string::npos) << msg;
  }
}

// ---- transactional recovery -------------------------------------------------

TEST_F(Ft, MultiFailureWaveAggregatesAndRollsBackBitIdentical) {
  mls::FlowConfig cfg = make_config(/*run_pdn=*/true);
  cfg.ft.max_retries = 0;  // surface the aggregate instead of retrying
  mls::DesignFlow flow = make_flow(cfg);
  ft::FaultPlan::instance().arm("power.estimate");
  ft::FaultPlan::instance().arm("pdn.synthesize");

  try {
    flow.evaluate_no_mls();
    FAIL() << "both analysis passes were armed to fail";
  } catch (const ft::AggregateFlowError& e) {
    ASSERT_EQ(e.errors().size(), 2u);  // ALL wave failures, pipeline order
    EXPECT_EQ(e.errors()[0].pass(), "power");
    EXPECT_EQ(e.errors()[1].pass(), "pdn");
    EXPECT_TRUE(e.retryable());
  }

  const flow::RunReport report = flow.last_run_report();
  ASSERT_EQ(report.failed.size(), 2u);
  EXPECT_EQ(report.failed[0].pass, "power");
  EXPECT_EQ(report.failed[0].code, "injected-fault");
  EXPECT_TRUE(report.failed[0].retryable);
  EXPECT_EQ(report.failed[1].pass, "pdn");
  ASSERT_FALSE(report.rollbacks.empty());
  for (const flow::RollbackRecord& rb : report.rollbacks)
    EXPECT_EQ(rb.pre_fp, rb.post_fp) << "rollback leaked state (wave " << rb.wave << ")";

  // The faults were one-shot, so the same flow object heals on re-run and
  // lands bit-identical to a twin that never saw a fault.
  const mls::FlowMetrics healed = flow.evaluate_no_mls();
  EXPECT_FALSE(healed.degraded);
  mls::DesignFlow twin = make_flow(cfg);
  expect_same_ppa(healed, twin.evaluate_no_mls());
  EXPECT_TRUE(flow.run_checks().clean());
}

TEST_F(Ft, ChaosSweepRetriesEverySiteToBitIdenticalResult) {
  const mls::FlowConfig cfg = make_config(/*run_pdn=*/true, /*strict=*/true);
  mls::DesignFlow twin = make_flow(cfg);
  const mls::FlowMetrics clean = twin.evaluate_no_mls();

  const char* sites[] = {"route.net", "route.commit", "sta.run",
                         "power.estimate", "pdn.synthesize", "check.run"};
  for (const char* site : sites) {
    SCOPED_TRACE(site);
    ft::FaultPlan::instance().reset();
    ft::FaultPlan::instance().arm(site);
    mls::DesignFlow flow = make_flow(cfg);
    const mls::FlowMetrics m = flow.evaluate_no_mls();

    EXPECT_EQ(ft::FaultPlan::instance().tripped(), 1u);  // the site was reached
    const flow::RunReport& report = flow.last_run_report();
    EXPECT_GE(report.retries, 1u);
    EXPECT_EQ(m.retries, report.retries);
    ASSERT_FALSE(report.rollbacks.empty());
    for (const flow::RollbackRecord& rb : report.rollbacks)
      EXPECT_EQ(rb.pre_fp, rb.post_fp);
    EXPECT_FALSE(m.degraded);  // retry recovered the primary path
    expect_same_ppa(m, clean);
    EXPECT_TRUE(flow.run_checks().clean());  // FT-001 among them
  }
}

TEST_F(Ft, DftFaultsRetryToBitIdenticalCoverage) {
  const mls::FlowConfig cfg = make_config();
  mls::DesignFlow twin = make_flow(cfg);
  const mls::DesignFlow::DftMetrics want =
      twin.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kNetBased);

  for (const char* site : {"dft.insert", "dft.eco"}) {
    SCOPED_TRACE(site);
    ft::FaultPlan::instance().reset();
    ft::FaultPlan::instance().arm(site);
    mls::DesignFlow flow = make_flow(cfg);
    const mls::DesignFlow::DftMetrics got =
        flow.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kNetBased);

    EXPECT_EQ(ft::FaultPlan::instance().tripped(), 1u);
    const flow::RunReport& report = flow.last_run_report();
    EXPECT_GE(report.retries, 1u);
    ASSERT_FALSE(report.rollbacks.empty());
    for (const flow::RollbackRecord& rb : report.rollbacks)
      EXPECT_EQ(rb.pre_fp, rb.post_fp);  // incl. the mid-mutation netlist copy
    expect_same_ppa(got.flow, want.flow);
    EXPECT_EQ(got.scan_flops, want.scan_flops);
    EXPECT_EQ(got.dft_cells, want.dft_cells);
    EXPECT_EQ(got.detected_faults, want.detected_faults);
    EXPECT_DOUBLE_EQ(got.coverage, want.coverage);
  }
}

// ---- degradation paths ------------------------------------------------------

TEST_F(Ft, EcoRerouteFailureDegradesToFullRoute) {
  mls::DesignFlow flow = make_flow(make_config());
  flow.evaluate_no_mls();

  // Splice a buffer pair behind an existing driver (the ECO idiom from
  // test_incremental.cpp) so the next evaluate takes the kEco repair path.
  netlist::Netlist& nl = flow.db().design().nl;
  Id tapped = netlist::kNullId;
  for (Id n = 0; n < nl.num_nets(); ++n)
    if (nl.net(n).driver != netlist::kNullId) { tapped = n; break; }
  ASSERT_NE(tapped, netlist::kNullId);
  const Id b1 = nl.add_cell(tech::CellKind::kBuf, 0, 80.0f, 90.0f);
  const Id b2 = nl.add_cell(tech::CellKind::kBuf, 0, 200.0f, 150.0f);
  nl.add_sink(tapped, nl.input_pin(b1, 0));
  nl.connect(b1, 0, b2, 0);

  ft::FaultPlan::instance().arm("route.eco");
  const mls::FlowMetrics m = flow.evaluate_no_mls();

  EXPECT_EQ(ft::FaultPlan::instance().tripped(), 1u);
  EXPECT_TRUE(m.degraded);  // fell back to route_all
  // Degradation is handled INSIDE the pass: the wave itself succeeded.
  EXPECT_TRUE(flow.last_run_report().rollbacks.empty());
  EXPECT_EQ(flow.last_run_report().retries, 0u);
  EXPECT_TRUE(flow.run_checks().clean());
  EXPECT_GT(m.wl_m, 0.0);
}

TEST_F(Ft, GnnInferenceFailureDegradesToSota) {
  const mls::FlowConfig cfg = make_config();
  mls::DesignFlow flow = make_flow(cfg);
  mls::DesignFlow twin = make_flow(cfg);
  twin.evaluate_no_mls();

  mls::GnnMlsEngine engine;
  ft::FaultPlan::instance().arm("decide.infer");
  const mls::FlowMetrics faulted = flow.evaluate_gnn(engine);

  EXPECT_EQ(ft::FaultPlan::instance().tripped(), 1u);
  EXPECT_TRUE(faulted.degraded);  // the "Ours" row declares its fallback
  expect_same_ppa(faulted, twin.evaluate_sota());
  EXPECT_TRUE(flow.run_checks().clean());
}

// ---- FT-001 integrity rule --------------------------------------------------

TEST_F(Ft, Ft001FlagsMidWriteState) {
  mls::DesignFlow flow = make_flow(make_config());
  flow.evaluate_no_mls();
  EXPECT_TRUE(flow.run_checks().clean());

  flow.db().begin_write(core::Stage::kPower);
  const check::Report bad = flow.run_checks();
  EXPECT_FALSE(bad.clean());
  EXPECT_GE(bad.rule_count("FT-001"), 1u);

  flow.db().end_write(core::Stage::kPower);
  EXPECT_TRUE(flow.run_checks().clean());
}

}  // namespace
