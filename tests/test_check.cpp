// Design-integrity checker tests: a clean flow produces zero error-severity
// diagnostics, and each seeded defect trips exactly the rule that owns it.
#include <gtest/gtest.h>

#include "check/checks.hpp"
#include "check/registry.hpp"
#include "mls/flow.hpp"
#include "util/log.hpp"

namespace {

using namespace gnnmls;
using netlist::Id;

// ---- positive: the real flow is clean --------------------------------------

TEST(CheckFlow, CleanSotaFlowHasNoErrors) {
  util::set_log_level(util::LogLevel::kWarn);
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = false;
  mls::DesignFlow flow(netlist::make_maeri_16pe(), cfg);
  flow.evaluate_sota();
  const check::Report report = flow.run_checks();
  EXPECT_EQ(report.errors(), 0u) << report.render();
  EXPECT_TRUE(report.clean());
  // Without DFT insertion or PDN synthesis those two passes skip; the
  // netlist/STA/route/MLS passes all have their inputs and must run.
  EXPECT_GE(report.passes_run().size(), 4u);
  EXPECT_FALSE(report.passes_skipped().empty());
}

TEST(CheckFlow, StrictModeDoesNotThrowOnCleanDesign) {
  util::set_log_level(util::LogLevel::kWarn);
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = false;
  cfg.strict_checks = true;
  mls::DesignFlow flow(netlist::make_maeri_16pe(), cfg);
  EXPECT_NO_THROW(flow.evaluate_no_mls());
}

// ---- netlist lint ----------------------------------------------------------

TEST(CheckNetlist, DanglingInputPinFiresNl001) {
  netlist::Netlist nl;
  const Id inv = nl.add_cell(tech::CellKind::kInv, 0);
  const Id po = nl.add_cell(tech::CellKind::kOutput, 0);
  nl.connect(inv, 0, po, 0);  // inv's own input is left floating

  check::Report report;
  check::check_netlist(nl, report);
  EXPECT_EQ(report.rule_count("NL-001"), 1u);
  EXPECT_EQ(report.errors(), 1u);
}

TEST(CheckNetlist, DoubleDrivenOutputFiresNl002AndNl005) {
  netlist::Netlist nl;
  const Id inv = nl.add_cell(tech::CellKind::kInv, 0);
  const Id buf = nl.add_cell(tech::CellKind::kBuf, 0);
  nl.connect(inv, 0, buf, 0);
  const Id n2 = nl.add_net();
  // The construction API refuses a second net on the same output pin; the
  // checker exists for exactly the states the guards cannot prevent.
  nl.corrupt_driver_for_test(n2, nl.output_pin(inv));

  check::Report report;
  check::check_netlist(nl, report);
  EXPECT_EQ(report.rule_count("NL-002"), 1u);
  // The pin's back-reference can only point at one of the two nets.
  EXPECT_EQ(report.rule_count("NL-005"), 1u);
}

TEST(CheckNetlist, DriverlessNetWithSinksFiresNl004) {
  netlist::Netlist nl;
  const Id buf = nl.add_cell(tech::CellKind::kBuf, 0);
  const Id n = nl.add_net();
  nl.add_sink(n, nl.input_pin(buf, 0));

  check::Report report;
  check::check_netlist(nl, report);
  EXPECT_EQ(report.rule_count("NL-004"), 1u);
}

TEST(CheckNetlist, DeadCombCellFiresNl003) {
  netlist::Netlist nl;
  const Id pi = nl.add_cell(tech::CellKind::kInput, 0);
  const Id inv = nl.add_cell(tech::CellKind::kInv, 0);
  nl.connect(pi, 0, inv, 0);  // inv's output drives nothing

  check::Report report;
  check::check_netlist(nl, report);
  EXPECT_EQ(report.rule_count("NL-003"), 1u);
  EXPECT_EQ(report.errors(), 0u);  // dead logic is a warning, not an error
}

// ---- STA -------------------------------------------------------------------

TEST(CheckSta, CombinationalCycleFiresSta001) {
  netlist::Netlist nl;
  const Id a = nl.add_cell(tech::CellKind::kInv, 0);
  const Id b = nl.add_cell(tech::CellKind::kInv, 0);
  nl.connect(a, 0, b, 0);
  nl.connect(b, 0, a, 0);

  check::Report report;
  check::check_sta_structure(nl, report);
  EXPECT_GT(report.rule_count("STA-001"), 0u);
}

TEST(CheckSta, AcyclicChainIsSta001Clean) {
  netlist::Netlist nl;
  const Id pi = nl.add_cell(tech::CellKind::kInput, 0);
  const Id a = nl.add_cell(tech::CellKind::kInv, 0);
  const Id ff = nl.add_cell(tech::CellKind::kDff, 0);
  nl.connect(pi, 0, a, 0);
  nl.connect(a, 0, ff, 0);

  check::Report report;
  check::check_sta_structure(nl, report);
  EXPECT_EQ(report.rule_count("STA-001"), 0u);
}

// ---- routing grid ----------------------------------------------------------

TEST(CheckRoute, GridOverflowFiresRt001) {
  const tech::Tech3D tech = tech::make_hetero_tech(6);
  route::RoutingGrid grid(64.0, 64.0, tech);
  const float cap = grid.capacity(0, 0, 0, 0);
  grid.add_usage(0, 0, 0, 0, cap + 5.0f);

  check::Report report;
  check::check_grid_capacity(grid, report);
  EXPECT_EQ(report.rule_count("RT-001"), 1u);
  EXPECT_EQ(report.errors(), 0u);  // overflow degrades QoR; it is not illegal
}

TEST(CheckRoute, F2fOverflowFiresRt003) {
  const tech::Tech3D tech = tech::make_hetero_tech(6);
  route::RoutingGrid grid(64.0, 64.0, tech);
  grid.add_f2f(1, 1, grid.f2f_capacity() + 3.0f);

  check::Report report;
  check::check_f2f_capacity(grid, report);
  EXPECT_EQ(report.rule_count("RT-003"), 1u);
}

// A multi-tier MLS net's native and cross-tier edges use metal on both
// tiers; only its shared edges are bound to the opposite tier's top pairs.
// Flagging every long net (3D ones included) must not fire RT-002 as long as
// each shared edge sits on a legal pair.
TEST(CheckRoute, MultiTierMlsNetsAreRt002Clean) {
  util::set_log_level(util::LogLevel::kWarn);
  mls::FlowConfig cfg;
  cfg.heterogeneous = false;
  cfg.run_pdn = false;
  mls::DesignFlow flow(netlist::make_maeri_16pe(), cfg);
  const netlist::Netlist& nl = flow.design().nl;
  std::vector<std::uint8_t> flags(nl.num_nets(), 0);
  std::size_t flagged_3d = 0;
  for (Id n = 0; n < nl.num_nets(); ++n)
    if (nl.net_hpwl_um(n) > 60.0) {
      flags[n] = 1;
      if (nl.is_3d_net(n)) ++flagged_3d;
    }
  ASSERT_GT(flagged_3d, 0u);
  flow.evaluate(flags, mls::Strategy::kGnn);

  std::size_t shared_3d = 0;
  for (Id n = 0; n < nl.num_nets(); ++n)
    if (nl.is_3d_net(n) && flow.router().net_route(n).mls_applied) ++shared_3d;
  ASSERT_GT(shared_3d, 0u);  // the case under test actually occurs
  check::Report report;
  check::check_routes(flow.design(), flow.router(), report);
  EXPECT_EQ(report.rule_count("RT-002"), 0u) << report.render();
}

// ---- DFT -------------------------------------------------------------------

TEST(CheckDft, UncoveredOpenNetFiresDft001AndDft002) {
  netlist::Netlist nl;
  const Id inv = nl.add_cell(tech::CellKind::kInv, 0);
  const Id buf = nl.add_cell(tech::CellKind::kBuf, 0);
  const Id n = nl.connect(inv, 0, buf, 0);  // ends in a plain buffer: no DFT cell

  dft::TestModel model;
  model.open_nets.push_back(n);

  check::Report report;
  check::check_dft_coverage(nl, model, report);
  EXPECT_EQ(report.rule_count("DFT-001"), 1u);
  EXPECT_EQ(report.rule_count("DFT-002"), 1u);  // driver not in observe_pins
}

TEST(CheckDft, ScanCoveredOpenNetIsClean) {
  netlist::Netlist nl;
  const Id inv = nl.add_cell(tech::CellKind::kInv, 0);
  const Id sff = nl.add_cell(tech::CellKind::kScanDff, 0);
  const Id n = nl.connect(inv, 0, sff, 0);

  dft::TestModel model;
  model.open_nets.push_back(n);
  model.observe_pins.push_back(nl.net(n).driver);

  check::Report report;
  check::check_dft_coverage(nl, model, report);
  EXPECT_EQ(report.total(), 0u);
}

// ---- PDN / power domains ---------------------------------------------------

TEST(CheckPdn, MissingLevelShifterFiresPdn002) {
  const tech::Tech3D tech = tech::make_hetero_tech(6);
  netlist::Netlist nl;
  const Id drv = nl.add_cell(tech::CellKind::kInv, 0);
  const Id snk = nl.add_cell(tech::CellKind::kBuf, 1);  // other tier, not an LS
  nl.connect(drv, 0, snk, 0);

  check::Report report;
  check::check_level_shifters(nl, tech, report);
  EXPECT_EQ(report.rule_count("PDN-002"), 1u);
  EXPECT_EQ(report.errors(), 1u);
}

TEST(CheckPdn, LevelShiftedCrossingIsClean) {
  const tech::Tech3D tech = tech::make_hetero_tech(6);
  netlist::Netlist nl;
  const Id drv = nl.add_cell(tech::CellKind::kInv, 0);
  const Id ls = nl.add_cell(tech::CellKind::kLevelShifter, 1);
  nl.connect(drv, 0, ls, 0);

  check::Report report;
  check::check_level_shifters(nl, tech, report);
  EXPECT_EQ(report.rule_count("PDN-002"), 0u);
}

TEST(CheckPdn, HomoStackNeedsNoShifters) {
  const tech::Tech3D tech = tech::make_homo_tech(6);
  netlist::Netlist nl;
  const Id drv = nl.add_cell(tech::CellKind::kInv, 0);
  const Id snk = nl.add_cell(tech::CellKind::kBuf, 1);
  nl.connect(drv, 0, snk, 0);

  check::Report report;
  check::check_level_shifters(nl, tech, report);
  EXPECT_EQ(report.total(), 0u);
}

TEST(CheckPdn, BlownIrBudgetFiresPdn001) {
  pdn::PdnDesign design;
  design.worst_ir_pct = 14.2;
  design.utilization[0] = 0.2;
  design.utilization[1] = 0.2;

  check::CheckOptions options;  // 10% budget
  check::Report report;
  check::check_ir_budget(design, options, report);
  EXPECT_EQ(report.rule_count("PDN-001"), 1u);
  EXPECT_EQ(report.errors(), 1u);
}

// ---- registry / report mechanics -------------------------------------------

TEST(CheckRegistry, SkipsPassesWithMissingInputs) {
  netlist::Design d = netlist::make_maeri_16pe();
  check::Snapshot snap;
  snap.design = &d;  // no router, no STA, no PDN, no test model

  const check::Report report =
      check::CheckRegistry::with_default_passes().run(snap);
  EXPECT_EQ(report.errors(), 0u) << report.render();
  // Netlist lint and structural STA need only the design; the rest skip
  // the sub-checks that need flow results.
  EXPECT_FALSE(report.passes_run().empty());
  EXPECT_FALSE(report.passes_skipped().empty());
}

TEST(CheckRegistry, AuditGroupProvesThePassListHandedIn) {
  netlist::Design d = netlist::make_maeri_16pe();
  check::Snapshot snap;
  snap.design = &d;
  const check::CheckRegistry registry = check::CheckRegistry::with_default_passes();
  const std::vector<std::string> only{"audit"};

  // A hand-built snapshot carries no pipeline: the group skips.
  const check::Report skipped = registry.run(snap, only);
  EXPECT_TRUE(skipped.passes_run().empty());
  ASSERT_EQ(skipped.passes_skipped().size(), 1u);
  EXPECT_EQ(skipped.passes_skipped()[0], "audit (no pipeline)");

  mls::FlowPasses passes;
  const std::vector<flow::Pass*> list = passes.all();
  snap.passes = list;
  const check::Report proved = registry.run(snap, only);
  EXPECT_TRUE(proved.clean()) << proved.render();
  ASSERT_EQ(proved.passes_run().size(), 1u);
  EXPECT_EQ(proved.passes_run()[0], "audit");
}

TEST(CheckRegistry, SubsetRunsOnlyNamedPasses) {
  netlist::Design d = netlist::make_maeri_16pe();
  check::Snapshot snap;
  snap.design = &d;

  const check::CheckRegistry registry = check::CheckRegistry::with_default_passes();
  const std::vector<std::string> only{"netlist"};
  const check::Report report = registry.run(snap, only);
  ASSERT_EQ(report.passes_run().size(), 1u);
  EXPECT_EQ(report.passes_run()[0], "netlist");
}

TEST(CheckReport, CapsStoredDiagnosticsButCountsAll) {
  const check::RuleInfo& rule = *check::find_rule("NL-001");
  check::Report report;
  for (int i = 0; i < 40; ++i)
    report.add(rule, "cell u" + std::to_string(i), "synthetic");
  EXPECT_EQ(report.rule_count("NL-001"), 40u);
  EXPECT_EQ(report.errors(), 40u);
  const std::string text = report.render();
  EXPECT_NE(text.find("further hits suppressed"), std::string::npos);
}

TEST(CheckReport, EveryRuleIsFindableAndUnique) {
  const auto rules = check::all_rules();
  EXPECT_GE(rules.size(), 18u);
  for (const check::RuleInfo& r : rules) {
    const check::RuleInfo* found = check::find_rule(r.id);
    ASSERT_NE(found, nullptr) << r.id;
    EXPECT_EQ(found, &r) << "duplicate rule id " << r.id;
    EXPECT_NE(std::string(r.invariant), "");
  }
  EXPECT_EQ(check::find_rule("NOPE-999"), nullptr);
}

}  // namespace
