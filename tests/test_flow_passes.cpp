// Pass-manager flow architecture tests: declarative scheduling from
// read/write sets, revision-aware skipping, incremental re-runs that stay
// bit-identical to cold runs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "flow/pass_manager.hpp"
#include "mls/flow.hpp"
#include "netlist/generators.hpp"
#include "util/log.hpp"

namespace {

using namespace gnnmls;

mls::DesignFlow make_flow(bool run_pdn = false, bool strict = false) {
  util::set_log_level(util::LogLevel::kWarn);
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = run_pdn;
  cfg.strict_checks = strict;
  return mls::DesignFlow(netlist::make_maeri_16pe(), cfg);
}

std::vector<std::string> executed_names(const flow::RunReport& report) {
  std::vector<std::string> out;
  for (const flow::PassExecution& e : report.executed) out.push_back(e.name);
  return out;
}

// Bit-identical PPA rows: every field the paper's tables report. Timing
// fields come through the incremental STA path in several tests, so
// DOUBLE_EQ (not NEAR) is the point.
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

// ---- canonical pass list ----------------------------------------------------

TEST(FlowPasses, CanonicalOrderAndLookup) {
  mls::FlowPasses passes;
  std::vector<std::string> names;
  for (const flow::Pass* p : passes.all()) names.push_back(p->name());
  const std::vector<std::string> want = {"route", "dft", "sta", "power", "pdn", "check",
                                         "decide"};
  EXPECT_EQ(names, want);

  const std::vector<flow::Pass*> route = flow::select_passes(passes.all(), {"route"});
  ASSERT_EQ(route.size(), 1u);
  EXPECT_STREQ(route[0]->name(), "route");
  EXPECT_THROW(flow::select_passes(passes.all(), {"bogus"}), std::invalid_argument);
}

TEST(FlowPasses, DeclaredSetsMatchTheDependencyDiagram) {
  mls::FlowPasses passes;
  const flow::Contract route = flow::contract_of(passes.route);
  const flow::Contract dft = flow::contract_of(passes.dft);
  const flow::Contract sta = flow::contract_of(passes.sta);
  const flow::Contract power = flow::contract_of(passes.power);
  const flow::Contract pdn = flow::contract_of(passes.pdn);

  // Writers before readers; independent analyses don't conflict.
  EXPECT_TRUE(flow::conflicts(route, sta));
  EXPECT_TRUE(flow::conflicts(route, dft));   // WAW on routes
  EXPECT_TRUE(flow::conflicts(dft, sta));
  EXPECT_FALSE(flow::conflicts(sta, power));  // may share a wave
  EXPECT_FALSE(flow::conflicts(sta, pdn));
  EXPECT_FALSE(flow::conflicts(power, pdn));
}

// ---- scheduling -------------------------------------------------------------

TEST(PassScheduling, WavesRespectTopologicalOrder) {
  mls::DesignFlow flow = make_flow(/*run_pdn=*/true);
  flow.evaluate_no_mls();
  const flow::RunReport& report = flow.last_run_report();

  ASSERT_TRUE(report.ran("route"));
  ASSERT_TRUE(report.ran("sta"));
  ASSERT_TRUE(report.ran("power"));
  ASSERT_TRUE(report.ran("pdn"));
  EXPECT_TRUE(report.skipped.empty());
  // route routes alone in wave 0; the three independent analyses share the
  // next wave.
  EXPECT_EQ(report.find("route")->wave, 0u);
  EXPECT_EQ(report.find("sta")->wave, 1u);
  EXPECT_EQ(report.find("power")->wave, 1u);
  EXPECT_EQ(report.find("pdn")->wave, 1u);
  EXPECT_EQ(report.waves, 2u);
}

TEST(PassScheduling, DftSerializesBetweenRouteAndAnalysis) {
  mls::DesignFlow flow = make_flow();
  flow.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kWireBased);
  const flow::RunReport& report = flow.last_run_report();

  ASSERT_TRUE(report.ran("route"));
  ASSERT_TRUE(report.ran("dft"));
  ASSERT_TRUE(report.ran("sta"));
  EXPECT_LT(report.find("route")->wave, report.find("dft")->wave);
  EXPECT_LT(report.find("dft")->wave, report.find("sta")->wave);
}

TEST(PassScheduling, SecondEvaluateOnUnmutatedDbSchedulesZeroPasses) {
  mls::DesignFlow flow = make_flow(/*run_pdn=*/true);
  const mls::FlowMetrics cold = flow.evaluate_no_mls();
  EXPECT_EQ(flow.last_run_report().executed.size(), 4u);

  const mls::FlowMetrics warm = flow.evaluate_no_mls();
  const flow::RunReport& report = flow.last_run_report();
  EXPECT_TRUE(report.executed.empty());
  EXPECT_EQ(report.skipped.size(), 4u);
  EXPECT_EQ(report.waves, 0u);

  // The row is assembled from the DB's stage caches, so the PPA numbers
  // survive the skip; the stage clocks read zero.
  expect_same_ppa(cold, warm);
  EXPECT_DOUBLE_EQ(warm.route_s, 0.0);
  EXPECT_DOUBLE_EQ(warm.sta_s, 0.0);
  EXPECT_DOUBLE_EQ(warm.power_s, 0.0);
  EXPECT_DOUBLE_EQ(warm.pdn_s, 0.0);
}

TEST(PassScheduling, PureReadCheckPassSkipsViaFingerprintLedger) {
  mls::DesignFlow flow = make_flow(/*run_pdn=*/false, /*strict=*/true);
  flow.evaluate_no_mls();
  EXPECT_TRUE(flow.last_run_report().ran("check"));

  flow.evaluate_no_mls();
  EXPECT_TRUE(flow.last_run_report().executed.empty());

  // Any audited artifact changing re-arms the audit.
  flow.db().invalidate(core::Stage::kRoutes);
  flow.evaluate_no_mls();
  EXPECT_TRUE(flow.last_run_report().ran("check"));
}

TEST(PassScheduling, TouchedNetRerunsOnlyDependentPassesBitIdentically) {
  mls::DesignFlow flow = make_flow(/*run_pdn=*/true);
  const mls::FlowMetrics cold = flow.evaluate_no_mls();

  flow.db().touch_net(0);
  const mls::FlowMetrics warm = flow.evaluate_no_mls();
  const flow::RunReport& report = flow.last_run_report();

  // Everything downstream of routes re-runs; nothing else exists to skip in
  // this pipeline, but the route pass takes the replay path (same netlist),
  // which is bit-exact with the cold route_all.
  const std::vector<std::string> want = {"route", "sta", "power", "pdn"};
  EXPECT_EQ(executed_names(report), want);
  expect_same_ppa(cold, warm);
}

TEST(PassScheduling, FlagFlipMatchesColdRunOnTwinDesign) {
  // Twin flows over the same generated design: A goes baseline -> SOTA
  // incrementally (flag diff -> dirty nets -> route_all diff), B routes the
  // SOTA flags cold. The rows must match bit for bit.
  mls::DesignFlow a = make_flow(/*run_pdn=*/true);
  mls::DesignFlow b = make_flow(/*run_pdn=*/true);

  a.evaluate_no_mls();
  const mls::FlowMetrics incremental = a.evaluate_sota();
  EXPECT_TRUE(a.last_run_report().ran("route"));

  const mls::FlowMetrics cold = b.evaluate_sota();
  expect_same_ppa(incremental, cold);
}

TEST(PassScheduling, DftPassDoesNotReinsertOnSecondRun) {
  mls::DesignFlow flow = make_flow();
  const mls::DesignFlow::DftMetrics first =
      flow.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kWireBased);
  EXPECT_GT(first.scan_flops, 0u);
  EXPECT_GT(first.coverage, 0.0);

  const mls::DesignFlow::DftMetrics second =
      flow.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kWireBased);
  // kTest is fresh, so the insertion (and the whole pipeline) is skipped;
  // the fault simulation re-runs off the cached test model.
  EXPECT_TRUE(flow.last_run_report().executed.empty());
  EXPECT_EQ(second.scan_flops, 0u);
  EXPECT_EQ(second.total_faults, first.total_faults);
  EXPECT_EQ(second.detected_faults, first.detected_faults);
  expect_same_ppa(first.flow, second.flow);
}

TEST(PassScheduling, RunPassesRejectsUnknownNames) {
  mls::DesignFlow flow = make_flow();
  EXPECT_THROW(flow.run_passes({"route", "bogus"}, {}), std::invalid_argument);
}

TEST(PassScheduling, RunPassesHonorsCanonicalOrder) {
  mls::DesignFlow flow = make_flow();
  // Names given out of order still schedule route before sta.
  flow.run_passes({"sta", "route"}, {});
  const flow::RunReport& report = flow.last_run_report();
  ASSERT_TRUE(report.ran("route"));
  ASSERT_TRUE(report.ran("sta"));
  EXPECT_LT(report.find("route")->wave, report.find("sta")->wave);
}

}  // namespace
