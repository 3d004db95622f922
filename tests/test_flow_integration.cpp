// Integration tests: the complete flow (generate -> buffer -> LS -> place ->
// route -> STA -> power [-> DFT]) across strategies, checking the paper's
// qualitative claims end to end on the small benchmark.
#include <gtest/gtest.h>

#include <cstdio>

#include "mls/flow.hpp"
#include "util/log.hpp"

namespace {

using namespace gnnmls;
using namespace gnnmls::mls;

FlowConfig fast_config(bool hetero) {
  FlowConfig cfg;
  cfg.heterogeneous = hetero;
  cfg.run_pdn = false;
  return cfg;
}

TEST(FlowIntegration, BaselineMetricsSane) {
  util::set_log_level(util::LogLevel::kWarn);
  DesignFlow flow(netlist::make_maeri_16pe(), fast_config(true));
  const FlowMetrics m = flow.evaluate_no_mls();
  EXPECT_EQ(m.strategy, "No MLS");
  EXPECT_GT(m.wl_m, 0.01);
  EXPECT_GT(m.endpoints, 500u);
  EXPECT_EQ(m.mls_nets, 0u);
  EXPECT_GT(m.power_mw, 1.0);
  EXPECT_GT(m.eff_freq_mhz, 500.0);
  EXPECT_LE(m.wns_ps, 0.0);
}

TEST(FlowIntegration, EvaluateIsDeterministic) {
  util::set_log_level(util::LogLevel::kWarn);
  DesignFlow a(netlist::make_maeri_16pe(), fast_config(true));
  DesignFlow b(netlist::make_maeri_16pe(), fast_config(true));
  const FlowMetrics ma = a.evaluate_no_mls();
  const FlowMetrics mb = b.evaluate_no_mls();
  EXPECT_DOUBLE_EQ(ma.wns_ps, mb.wns_ps);
  EXPECT_DOUBLE_EQ(ma.wl_m, mb.wl_m);
  EXPECT_EQ(ma.violating, mb.violating);
}

TEST(FlowIntegration, OracleMlsImprovesTiming) {
  // Paper's central claim, with oracle decisions standing in for the GNN:
  // selective MLS improves WNS/TNS/violations over the sequential-2D flow.
  util::set_log_level(util::LogLevel::kWarn);
  // At the default 400 ps clock the negotiated router meets timing on this
  // small design, so the clock is tightened to 300 ps to give the baseline
  // violations for MLS to fix (No-MLS: WNS -94.8 ps, TNS -6.33 ns, 156
  // violations; oracle MLS: -90.6 ps, -5.66 ns, 154, with 77 MLS nets).
  // All five assertions hold for clocks of 0.69-0.81x of 400 ps. From 0.82x
  // to 0.96x TNS and the violation count still improve but WNS gets worse
  // (0.94x excepted): the oracle's per-net gains miss the single worst
  // path. At 0.97-0.98x all three get worse; at 1.0x the baseline meets
  // timing.
  netlist::Design d = netlist::make_maeri_16pe();
  d.info.clock_ps *= 0.75;
  DesignFlow flow(std::move(d), fast_config(true));
  const FlowMetrics base = flow.evaluate_no_mls();
  ASSERT_GT(base.violating, 0u);
  CorpusOptions co;
  co.max_paths = 2000;
  co.include_near_critical = false;
  co.attach_labels = true;
  const Corpus corpus = flow.corpus(co);
  std::vector<std::uint8_t> flags(flow.design().nl.num_nets(), 0);
  for (const auto& g : corpus.graphs)
    for (std::size_t i = 0; i < g.labels.size(); ++i)
      if (g.labels[i] == 1 && g.net_ids[i] != netlist::kNullId) flags[g.net_ids[i]] = 1;
  const FlowMetrics shared = flow.evaluate(flags, Strategy::kGnn);
  EXPECT_GE(shared.wns_ps, base.wns_ps);
  EXPECT_GE(shared.tns_ns, base.tns_ns);
  EXPECT_LE(shared.violating, base.violating);
  EXPECT_GT(shared.mls_nets, 0u);
  EXPECT_GE(shared.eff_freq_mhz, base.eff_freq_mhz);
}

TEST(FlowIntegration, LevelShiftersOnlyInHetero) {
  util::set_log_level(util::LogLevel::kWarn);
  DesignFlow hetero(netlist::make_maeri_16pe(), fast_config(true));
  DesignFlow homo(netlist::make_maeri_16pe(), fast_config(false));
  const FlowMetrics mh = hetero.evaluate_no_mls();
  const FlowMetrics mm = homo.evaluate_no_mls();
  EXPECT_GT(mh.ls_power_mw, 0.0);
  EXPECT_DOUBLE_EQ(mm.ls_power_mw, 0.0);
}

TEST(FlowIntegration, MlsNetsRaiseF2FCount) {
  util::set_log_level(util::LogLevel::kWarn);
  DesignFlow flow(netlist::make_maeri_16pe(), fast_config(true));
  const FlowMetrics base = flow.evaluate_no_mls();
  const FlowMetrics sota = flow.evaluate_sota();
  EXPECT_GT(sota.mls_nets, 0u);
  EXPECT_GT(sota.f2f_vias, base.f2f_vias);
}

TEST(FlowIntegration, PdnReportedWhenEnabled) {
  util::set_log_level(util::LogLevel::kWarn);
  FlowConfig cfg = fast_config(true);
  cfg.run_pdn = true;
  DesignFlow flow(netlist::make_maeri_16pe(), cfg);
  const FlowMetrics m = flow.evaluate_no_mls();
  EXPECT_GT(m.ir_drop_pct, 0.0);
  EXPECT_GT(m.pdn_util, 0.0);
  EXPECT_GT(m.pdn_width_um, 0.0);
  ASSERT_NE(flow.pdn_design(), nullptr);
  EXPECT_LE(flow.pdn_design()->worst_ir_pct, 10.0 + 1e-6);
}

TEST(FlowIntegration, DftFlowProducesCoverage) {
  util::set_log_level(util::LogLevel::kWarn);
  DesignFlow flow(netlist::make_maeri_16pe(), fast_config(true));
  flow.evaluate_no_mls();
  CorpusOptions co;
  co.max_paths = 2000;
  co.include_near_critical = false;
  co.attach_labels = true;
  const Corpus corpus = flow.corpus(co);
  std::vector<std::uint8_t> flags(flow.design().nl.num_nets(), 0);
  for (const auto& g : corpus.graphs)
    for (std::size_t i = 0; i < g.labels.size(); ++i)
      if (g.labels[i] == 1 && g.net_ids[i] != netlist::kNullId) flags[g.net_ids[i]] = 1;
  const auto dft = flow.evaluate_with_dft(flags, Strategy::kGnn, dft::MlsDftStyle::kWireBased);
  EXPECT_GT(dft.scan_flops, 100u);
  EXPECT_GT(dft.total_faults, 1000u);
  EXPECT_GT(dft.coverage, 0.88);
  EXPECT_GT(dft.flow.wl_m, 0.0);
}

TEST(FlowIntegration, HomoFlowRuns) {
  util::set_log_level(util::LogLevel::kWarn);
  DesignFlow flow(netlist::make_maeri_16pe(), fast_config(false));
  const FlowMetrics base = flow.evaluate_no_mls();
  const FlowMetrics sota = flow.evaluate_sota();
  EXPECT_GT(base.endpoints, 0u);
  EXPECT_GE(sota.mls_nets, 0u);
}

// FlowGolden pins one SOTA evaluate and one DFT evaluate of MAERI-16 to their
// exact bits: the PPA row, the test coverage and the DesignDB state
// fingerprint. Every stage is a pure function of the netlist, the flags and
// the options, so any change that moves one of these values changes what
// the flow computes; re-pin it on purpose and say so in CHANGES.md. The
// clock is tightened to 0.75x (as in OracleMlsImprovesTiming) so that WNS,
// TNS and the violation count are nonzero.

void print_golden(const char* tag, const FlowMetrics& m, double coverage, std::uint64_t fp) {
  std::printf("golden %s: wl=%.17g wns=%.17g tns=%.17g vio=%zu mls=%zu overflow=%zu "
              "power=%.17g coverage=%.17g fp=0x%016llx\n",
              tag, m.wl_m, m.wns_ps, m.tns_ns, m.violating, m.mls_nets, m.overflow_gcells,
              m.power_mw, coverage, static_cast<unsigned long long>(fp));
}

netlist::Design tight_maeri16() {
  netlist::Design d = netlist::make_maeri_16pe();
  d.info.clock_ps *= 0.75;
  return d;
}

TEST(FlowGolden, Maeri16SotaEvaluateIsBitIdentical) {
  util::set_log_level(util::LogLevel::kWarn);
  DesignFlow flow(tight_maeri16(), FlowConfig{});
  const FlowMetrics m = flow.evaluate_sota();
  const std::uint64_t fp = flow.db().state_fingerprint();
  print_golden("sota", m, 0.0, fp);
  EXPECT_EQ(m.wl_m, 0.10302297483253463);
  EXPECT_EQ(m.wns_ps, -91.350772476017539);
  EXPECT_EQ(m.tns_ns, -5.9052666851622195);
  EXPECT_EQ(m.violating, 154u);
  EXPECT_EQ(m.mls_nets, 96u);
  EXPECT_EQ(m.overflow_gcells, 111u);
  EXPECT_EQ(m.power_mw, 24.379979697737525);
  EXPECT_EQ(fp, 0x0bfa0fc099deacb9ULL);
}

TEST(FlowGolden, Maeri16DftEvaluateIsBitIdentical) {
  util::set_log_level(util::LogLevel::kWarn);
  DesignFlow flow(tight_maeri16(), FlowConfig{});
  const std::vector<std::uint8_t> flags = sota_select(flow.design(), flow.config().sota);
  const DesignFlow::DftMetrics dft =
      flow.evaluate_with_dft(flags, Strategy::kSota, dft::MlsDftStyle::kWireBased);
  const FlowMetrics& m = dft.flow;
  const std::uint64_t fp = flow.db().state_fingerprint();
  print_golden("dft", m, dft.coverage, fp);
  EXPECT_EQ(m.wl_m, 0.1147618288793649);
  EXPECT_EQ(m.wns_ps, -101.00919610250003);
  EXPECT_EQ(m.tns_ns, -7.915104778715734);
  EXPECT_EQ(m.violating, 184u);
  EXPECT_EQ(m.mls_nets, 92u);
  EXPECT_EQ(m.overflow_gcells, 143u);
  EXPECT_EQ(m.power_mw, 27.439364534951917);
  EXPECT_EQ(dft.coverage, 0.90360069864302028);
  // Stage revisions follow commit order: the DFT wave commits placement,
  // test, then routes.
  EXPECT_EQ(fp, 0xa329247efb41a312ULL);
}

}  // namespace
