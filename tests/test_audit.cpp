// Pass-contract audit properties, both layers of src/audit/:
//
//   * static (AU-00x): the schedule analyzer proves the canonical pass list
//     clean and refutes deliberately broken models — seeded wave conflicts,
//     undriven reads, unused writes, rollback-coverage holes, duplicate
//     declarations;
//   * dynamic (AU-10x): the DesignDB access recorder catches toy passes
//     that write or read outside their declarations (including journal-only
//     netlist mutations the accessor hooks cannot see), stays silent on the
//     real full flow, leaves PPA bit-identical to a non-audited twin, and
//     keeps its findings across a rolled-back-and-retried wave.
//
// The toy passes are run straight through a PassManager, outside any
// DesignFlow's canonical pass list.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/schedule_analyzer.hpp"
#include "core/design_db.hpp"
#include "flow/pass_manager.hpp"
#include "ft/error.hpp"
#include "mls/flow.hpp"
#include "netlist/generators.hpp"
#include "pdn/power.hpp"
#include "util/log.hpp"

namespace {

using namespace gnnmls;
using core::Stage;

bool contains(const std::vector<Stage>& set, Stage s) {
  for (const Stage x : set)
    if (x == s) return true;
  return false;
}

// Same minimal wired design as test_core.cpp: enough netlist to construct a
// DesignDB for toy-pass runs (the toys never route or place it).
netlist::Design tiny_design() {
  netlist::Design d;
  d.info.name = "tiny";
  const netlist::Id a = d.nl.add_cell(tech::CellKind::kInv, 0, 10.0f, 10.0f);
  const netlist::Id b = d.nl.add_cell(tech::CellKind::kBuf, 0, 20.0f, 10.0f);
  const netlist::Id c = d.nl.add_cell(tech::CellKind::kBuf, 1, 30.0f, 30.0f);
  d.nl.connect(a, 0, b, 0);
  d.nl.connect(b, 0, c, 0);
  return d;
}

// Bit-identical PPA rows (same contract as test_flow_passes.cpp).
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

// ---- layer 1: static schedule analysis --------------------------------------

TEST(AuditStatic, PassListAnalyzesClean) {
  mls::FlowPasses passes;
  const audit::ScheduleModel model = audit::model_of(passes.all());
  const audit::ScheduleAnalysis analysis = audit::analyze(model);

  EXPECT_TRUE(analysis.clean()) << analysis.report.render();
  EXPECT_EQ(analysis.passes, 7u);
  EXPECT_EQ(analysis.conflicts, 0u);
  EXPECT_EQ(analysis.undriven, 0u);
  EXPECT_EQ(analysis.unused, 0u);
  EXPECT_EQ(analysis.rollback_holes, 0u);
  EXPECT_EQ(analysis.duplicates, 0u);

  // The canonical cold-DB wave structure: route alone, dft alone (each
  // conflicts with everything via routes/placement), the three independent
  // analyses together, then the pure readers.
  ASSERT_EQ(analysis.waves.size(), 4u);
  const auto name = [&](std::size_t i) { return model.passes[i].name; };
  ASSERT_EQ(analysis.waves[0].size(), 1u);
  EXPECT_EQ(name(analysis.waves[0][0]), "route");
  ASSERT_EQ(analysis.waves[1].size(), 1u);
  EXPECT_EQ(name(analysis.waves[1][0]), "dft");
  EXPECT_EQ(analysis.waves[2].size(), 3u);
  EXPECT_EQ(analysis.waves[3].size(), 2u);
}

TEST(AuditStatic, SeededWaveConflictIsDetected) {
  audit::ScheduleModel model;
  model.passes.push_back({"writer", {Stage::kNetlist}, {Stage::kRoutes}, {}, false});
  model.passes.push_back({"reader", {Stage::kRoutes}, {Stage::kTiming}, {}, false});

  // The self-computed partition serializes them and is clean...
  ASSERT_EQ(audit::compute_waves(model).size(), 2u);
  EXPECT_TRUE(audit::analyze(model).clean());

  // ...but a supplied partition that co-schedules them is refuted (AU-001).
  const audit::ScheduleAnalysis broken = audit::analyze(model, {{0, 1}});
  EXPECT_FALSE(broken.clean());
  EXPECT_EQ(broken.conflicts, 1u);
  EXPECT_EQ(broken.report.rule_count("AU-001"), 1u);
}

TEST(AuditStatic, UndrivenReadIsDetected) {
  audit::ScheduleModel model;
  model.passes.push_back({"sta-like", {Stage::kTiming}, {Stage::kPower}, {}, false});

  const audit::ScheduleAnalysis analysis = audit::analyze(model);
  EXPECT_FALSE(analysis.clean());
  EXPECT_EQ(analysis.undriven, 1u);
  EXPECT_EQ(analysis.report.rule_count("AU-002"), 1u);
}

TEST(AuditStatic, TolerantReaderDemotesUndrivenReadToInfo) {
  audit::ScheduleModel model;
  model.passes.push_back({"check-like", {Stage::kTiming}, {Stage::kPower}, {}, true});

  const audit::ScheduleAnalysis analysis = audit::analyze(model);
  EXPECT_TRUE(analysis.clean());  // info, not error
  EXPECT_EQ(analysis.undriven, 1u);
}

TEST(AuditStatic, UnusedWriteWarns) {
  audit::ScheduleModel model;
  model.passes.push_back({"producer", {Stage::kNetlist}, {Stage::kPower}, {}, false});
  model.outputs = {Stage::kNetlist};  // nothing downstream consumes kPower

  const audit::ScheduleAnalysis analysis = audit::analyze(model);
  EXPECT_TRUE(analysis.clean());  // warning severity
  EXPECT_EQ(analysis.unused, 1u);
  EXPECT_EQ(analysis.report.rule_count("AU-003"), 1u);
}

TEST(AuditStatic, RollbackHoleIsDetected) {
  // A side-effect write outside the wave's snapshot union: the transaction
  // cannot roll it back. Declared writes carry the snapshot, so only the
  // out-of-contract footprint can open the hole.
  audit::ScheduleModel model;
  model.passes.push_back(
      {"leaky", {Stage::kNetlist}, {Stage::kTiming}, /*side_writes=*/{Stage::kPower}, false});

  const audit::ScheduleAnalysis analysis = audit::analyze(model);
  EXPECT_FALSE(analysis.clean());
  EXPECT_EQ(analysis.rollback_holes, 1u);
  EXPECT_EQ(analysis.report.rule_count("AU-004"), 1u);

  // The snapshot design-value rule covers netlist-adjacent side writes: a
  // wave that snapshots kNetlist also carries kPlacement (and vice versa),
  // so the same side write under a kNetlist-writing contract is covered.
  audit::ScheduleModel covered;
  covered.passes.push_back(
      {"mutator", {Stage::kNetlist}, {Stage::kNetlist}, /*side_writes=*/{Stage::kPlacement},
       false});
  EXPECT_EQ(audit::analyze(covered).rollback_holes, 0u);
}

TEST(AuditStatic, DuplicateDeclarationWarns) {
  audit::ScheduleModel model;
  model.passes.push_back(
      {"sloppy", {Stage::kNetlist, Stage::kNetlist}, {Stage::kRoutes}, {}, false});

  const audit::ScheduleAnalysis analysis = audit::analyze(model);
  EXPECT_TRUE(analysis.clean());  // warning severity
  EXPECT_EQ(analysis.duplicates, 1u);
  EXPECT_EQ(analysis.report.rule_count("AU-005"), 1u);
}

TEST(AuditStatic, SubsetIsAnalyzedInCanonicalOrder) {
  // --only=sta,route names route's consumer first; the model still follows
  // the pass list, so route drives sta's routes read and the schedule is the
  // same as for route,sta.
  mls::FlowPasses passes;
  const audit::ScheduleModel given = audit::model_of(passes.all(), {"sta", "route"});
  const audit::ScheduleModel canonical = audit::model_of(passes.all(), {"route", "sta"});
  ASSERT_EQ(given.passes.size(), 2u);
  EXPECT_EQ(given.passes[0].name, "route");
  EXPECT_EQ(given.passes[1].name, "sta");

  const audit::ScheduleAnalysis analysis = audit::analyze(given);
  EXPECT_TRUE(analysis.clean()) << analysis.report.render();
  EXPECT_EQ(analysis.undriven, 0u);
  EXPECT_EQ(analysis.waves, audit::analyze(canonical).waves);
  EXPECT_THROW(audit::model_of(passes.all(), {"sta", "bogus"}), std::invalid_argument);
}

// ---- declaration-drift regressions ------------------------------------------
// These two declarations were fixed after the contract audit flagged them;
// pin them so the drift cannot come back silently.

TEST(AuditDrift, RouteDeclaresItsPlacementRecommit) {
  const mls::FlowPasses passes;
  EXPECT_TRUE(contains(passes.route.writes(), Stage::kRoutes));
  // absorb_journal()'s placement re-commit after an external netlist ECO.
  EXPECT_TRUE(contains(passes.route.writes(), Stage::kPlacement));
}

TEST(AuditDrift, DftDeclaresItsNetlistMutation) {
  const mls::FlowPasses passes;
  EXPECT_TRUE(contains(passes.dft.writes(), Stage::kTest));
  EXPECT_TRUE(contains(passes.dft.writes(), Stage::kRoutes));
  EXPECT_TRUE(contains(passes.dft.writes(), Stage::kPlacement));
  // Scan insertion mutates the netlist; the wave snapshot must carry it.
  EXPECT_TRUE(contains(passes.dft.writes(), Stage::kNetlist));
}

// ---- layer 2: dynamic access audit ------------------------------------------

// Toy passes with deliberately broken contracts, run outside any flow (see
// the file comment).
class MisdeclaredWriter : public flow::Pass {
 public:
  const char* name() const override { return "toy-writer"; }
  std::vector<Stage> reads() const override { return {Stage::kNetlist}; }
  std::vector<Stage> writes() const override { return {Stage::kPdn}; }
  void run(flow::PassContext& ctx) override {
    ctx.db.set_power(pdn::PowerReport{});  // kPower is not in writes()
    ctx.db.commit(Stage::kPower);
  }
};

class MisdeclaredReader : public flow::Pass {
 public:
  const char* name() const override { return "toy-reader"; }
  std::vector<Stage> reads() const override { return {Stage::kNetlist}; }
  std::vector<Stage> writes() const override { return {Stage::kPdn}; }
  void run(flow::PassContext& ctx) override {
    (void)ctx.db.dirty_nets();  // kRoutes is in neither reads() nor writes()
  }
};

// Writes subsume reads (read-modify-write is the normal shape of a writer),
// so a declared kRoutes writer may inspect the dirty set without flagging.
class RmwWriter : public flow::Pass {
 public:
  const char* name() const override { return "toy-rmw"; }
  std::vector<Stage> reads() const override { return {Stage::kNetlist}; }
  std::vector<Stage> writes() const override { return {Stage::kRoutes}; }
  void run(flow::PassContext& ctx) override {
    (void)ctx.db.dirty_nets();
    ctx.db.commit(Stage::kRoutes);
  }
};

// Journal-only netlist mutation: no accessor hook fires a kNetlist write,
// but the non-const design() access plus the wave's netlist revision delta
// convict the pass.
class NetlistMutator : public flow::Pass {
 public:
  const char* name() const override { return "toy-mutator"; }
  std::vector<Stage> reads() const override { return {Stage::kNetlist}; }
  std::vector<Stage> writes() const override { return {Stage::kRoutes}; }
  void run(flow::PassContext& ctx) override {
    ctx.db.design().nl.add_cell(tech::CellKind::kBuf, 0, 80.0f, 90.0f);
  }
};

// Mis-declared AND faulty: the undeclared write happens on every attempt,
// the (retryable) throw only on the first — the wave rolls back and
// retries, and the finding must survive both.
class FaultyMisdeclaredWriter : public flow::Pass {
 public:
  const char* name() const override { return "toy-faulty"; }
  std::vector<Stage> reads() const override { return {Stage::kNetlist}; }
  std::vector<Stage> writes() const override { return {Stage::kPdn}; }
  void run(flow::PassContext& ctx) override {
    ctx.db.set_power(pdn::PowerReport{});
    ctx.db.commit(Stage::kPower);
    if (runs_.fetch_add(1) == 0)
      throw ft::FlowError(ft::ErrorCode::kInjectedFault, "toy-faulty", "pdn",
                          ctx.db.revision(Stage::kNetlist), /*retryable=*/true,
                          "synthetic first-attempt fault");
  }

 private:
  std::atomic<int> runs_{0};
};

// Audit mode on for every test in the fixture, via the same env override
// the CI gate uses; the config default stays off.
class AuditDynamic : public ::testing::Test {
 protected:
  void SetUp() override {
    util::set_log_level(util::LogLevel::kError);
    ::setenv("GNNMLS_AUDIT", "1", 1);
  }
  void TearDown() override { ::unsetenv("GNNMLS_AUDIT"); }

  // Runs the toys as a pipeline against a tiny DB; returns the report.
  const flow::RunReport& run_toys(const std::vector<flow::Pass*>& pipeline) {
    ctx_ = std::make_unique<Harness>();
    return ctx_->pm.run(pipeline, ctx_->ctx);
  }
  flow::FlowMetrics& metrics() { return ctx_->metrics; }

 private:
  struct Harness {
    core::DesignDB db{tiny_design(), tech::make_hetero_tech(6)};
    mls::FlowConfig cfg;
    flow::FlowMetrics metrics;
    flow::PassContext ctx{db, cfg, metrics};
    flow::PassManager pm;
  };
  std::unique_ptr<Harness> ctx_;
};

TEST_F(AuditDynamic, UndeclaredWriteIsCaught) {
  MisdeclaredWriter toy;
  const flow::RunReport& report = run_toys({&toy});

  ASSERT_EQ(report.audit.size(), 1u);  // set_power + commit dedupe to one
  EXPECT_EQ(report.audit[0].kind, ft::ViolationKind::kUndeclaredWrite);
  EXPECT_EQ(report.audit[0].pass, "toy-writer");
  EXPECT_EQ(report.audit[0].stage, Stage::kPower);
  EXPECT_EQ(report.audited, 1u);
  EXPECT_EQ(metrics().contract_violations, 1u);
  EXPECT_NE(report.audit[0].line().find("undeclared-write"), std::string::npos);
}

TEST_F(AuditDynamic, UndeclaredReadIsCaught) {
  MisdeclaredReader toy;
  const flow::RunReport& report = run_toys({&toy});

  ASSERT_EQ(report.audit.size(), 1u);
  EXPECT_EQ(report.audit[0].kind, ft::ViolationKind::kUndeclaredRead);
  EXPECT_EQ(report.audit[0].stage, Stage::kRoutes);
  EXPECT_EQ(metrics().contract_violations, 1u);
}

TEST_F(AuditDynamic, DeclaredWriteSubsumesItsRead) {
  RmwWriter toy;
  const flow::RunReport& report = run_toys({&toy});
  EXPECT_TRUE(report.audit.empty());
  EXPECT_EQ(report.audited, 1u);
  EXPECT_EQ(metrics().contract_violations, 0u);
}

TEST_F(AuditDynamic, JournalOnlyNetlistMutationIsCaught) {
  NetlistMutator toy;
  const flow::RunReport& report = run_toys({&toy});

  ASSERT_EQ(report.audit.size(), 1u);
  EXPECT_EQ(report.audit[0].kind, ft::ViolationKind::kUndeclaredWrite);
  EXPECT_EQ(report.audit[0].stage, Stage::kNetlist);
}

TEST_F(AuditDynamic, FindingsSurviveRolledBackWave) {
  FaultyMisdeclaredWriter toy;
  const flow::RunReport& report = run_toys({&toy});

  // The first attempt threw, rolled back, and retried to success...
  EXPECT_TRUE(report.ran("toy-faulty"));
  ASSERT_GE(report.rollbacks.size(), 1u);
  EXPECT_GE(report.retries, 1u);
  EXPECT_EQ(report.audited, 2u);  // both attempts were recorded

  // ...and the violation from the rolled-back attempt is retained, deduped
  // against the identical finding of the successful retry.
  ASSERT_EQ(report.audit.size(), 1u);
  EXPECT_EQ(report.audit[0].kind, ft::ViolationKind::kUndeclaredWrite);
  EXPECT_EQ(report.audit[0].stage, Stage::kPower);
  EXPECT_EQ(metrics().contract_violations, 1u);
}

TEST_F(AuditDynamic, CleanFullFlowReportsZeroViolations) {
  // Doubles as the drift regression for the pipeline's passes: any
  // un-declared DB access in the real pipeline fails here.
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = true;
  mls::DesignFlow flow(netlist::make_maeri_16pe(), cfg);
  flow.evaluate_sota();

  const flow::RunReport& report = flow.last_run_report();
  EXPECT_GE(report.audited, 4u);
  EXPECT_TRUE(report.audit.empty()) << report.audit.front().line();
}

TEST_F(AuditDynamic, CleanDftFlowReportsZeroViolations) {
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = false;
  mls::DesignFlow flow(netlist::make_maeri_16pe(), cfg);
  flow.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kWireBased);

  const flow::RunReport& report = flow.last_run_report();
  EXPECT_TRUE(report.audit.empty()) << report.audit.front().line();
}

TEST(AuditProperty, AuditModeIsBitIdenticalToNonAudit) {
  util::set_log_level(util::LogLevel::kError);
  mls::FlowConfig cfg_on;
  cfg_on.heterogeneous = true;
  cfg_on.run_pdn = true;
  cfg_on.audit = true;  // config switch, no env: the recorder must be free
  mls::FlowConfig cfg_off = cfg_on;
  cfg_off.audit = false;

  mls::DesignFlow audited(netlist::make_maeri_16pe(), cfg_on);
  mls::DesignFlow plain(netlist::make_maeri_16pe(), cfg_off);
  const mls::FlowMetrics a = audited.evaluate_sota();
  const mls::FlowMetrics b = plain.evaluate_sota();

  expect_same_ppa(a, b);
  EXPECT_GT(audited.last_run_report().audited, 0u);
  EXPECT_EQ(plain.last_run_report().audited, 0u);
}

}  // namespace
