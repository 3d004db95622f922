// Property-based sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P): invariants that
// must hold across seeds, design families, technology configurations, and
// option grids — the guard rails under the calibrated substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/access_audit.hpp"
#include "core/design_db.hpp"
#include "mls/flow.hpp"
#include "dft/faults.hpp"
#include "mls/labeler.hpp"
#include "netlist/buffering.hpp"
#include "place/placer.hpp"
#include "util/log.hpp"

namespace {

using namespace gnnmls;
using namespace gnnmls::netlist;

// ---------------------------------------------------------------------------
// Generator invariants across seeds and configurations.
// ---------------------------------------------------------------------------
class GeneratorSweep : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

Design make_param_design(int family, std::uint64_t seed) {
  switch (family) {
    case 0: return make_maeri_16pe(seed);
    case 1: {
      MaeriParams p;
      p.num_pe = 32;
      p.bandwidth = 8;
      p.die_w_um = 320.0;
      p.seed = seed;
      return make_maeri(p);
    }
    case 2: {
      A7Params p;
      p.num_cores = 1;
      p.stage_gates = 500;
      p.bus_bits = 32;
      p.l1_banks = 4;
      p.die_w_um = 420.0;
      p.seed = seed;
      return make_a7(p);
    }
    default: {
      RandomDagParams p;
      p.gates = 400;
      p.seed = seed;
      p.two_tier = (seed % 2) == 0;
      return make_random_dag(p);
    }
  }
}

TEST_P(GeneratorSweep, StructurallyValid) {
  const auto [family, seed] = GetParam();
  const Design d = make_param_design(family, seed);
  const auto problems = d.nl.validate();
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems[0]);
}

TEST_P(GeneratorSweep, EveryNetHasDriverAndNoSelfLoop) {
  const auto [family, seed] = GetParam();
  const Design d = make_param_design(family, seed);
  for (Id n = 0; n < d.nl.num_nets(); ++n) {
    const Net& net = d.nl.net(n);
    ASSERT_NE(net.driver, kNullId);
    const Id driver_cell = d.nl.pin(net.driver).cell;
    for (Id sp : net.sinks)
      EXPECT_NE(d.nl.pin(sp).cell, driver_cell) << "combinational self-loop on " << d.nl.net_name(n);
  }
}

TEST_P(GeneratorSweep, PinBackReferencesConsistent) {
  const auto [family, seed] = GetParam();
  const Design d = make_param_design(family, seed);
  for (Id c = 0; c < d.nl.num_cells(); ++c) {
    const CellInst& cell = d.nl.cell(c);
    for (int i = 0; i < cell.num_in; ++i) EXPECT_EQ(d.nl.pin(d.nl.input_pin(c, i)).cell, c);
    for (int o = 0; o < cell.num_out; ++o) EXPECT_EQ(d.nl.pin(d.nl.output_pin(c, o)).cell, c);
  }
}

TEST_P(GeneratorSweep, SequentialElementsExist) {
  const auto [family, seed] = GetParam();
  const Design d = make_param_design(family, seed);
  EXPECT_GT(d.nl.stats().sequential, 0u);
}

INSTANTIATE_TEST_SUITE_P(Families, GeneratorSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1u, 7u, 42u, 1234u)));

// ---------------------------------------------------------------------------
// Buffering invariants across fanout/pitch grids.
// ---------------------------------------------------------------------------
class BufferingSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BufferingSweep, FanoutBoundHolds) {
  const auto [max_fanout, pitch] = GetParam();
  Design d = make_maeri_16pe(5);
  BufferingOptions opt;
  opt.max_fanout = max_fanout;
  opt.max_unbuffered_um = pitch;
  insert_buffer_trees(d.nl, opt);
  for (Id n = 0; n < d.nl.num_nets(); ++n)
    EXPECT_LE(d.nl.net(n).sinks.size(), static_cast<std::size_t>(max_fanout));
  EXPECT_TRUE(d.nl.validate().empty());
}

TEST_P(BufferingSweep, SinkDistanceBoundHolds) {
  const auto [max_fanout, pitch] = GetParam();
  Design d = make_maeri_16pe(6);
  BufferingOptions opt;
  opt.max_fanout = max_fanout;
  opt.max_unbuffered_um = pitch;
  insert_buffer_trees(d.nl, opt);
  for (Id n = 0; n < d.nl.num_nets(); ++n) {
    const Net& net = d.nl.net(n);
    if (net.driver == kNullId) continue;
    const CellInst& drv = d.nl.cell(d.nl.pin(net.driver).cell);
    for (Id sp : net.sinks) {
      const CellInst& c = d.nl.cell(d.nl.pin(sp).cell);
      EXPECT_LE(std::abs(c.x_um - drv.x_um) + std::abs(c.y_um - drv.y_um), pitch + 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, BufferingSweep,
                         ::testing::Combine(::testing::Values(4, 8, 16),
                                            ::testing::Values(200.0, 400.0, 800.0)));

// ---------------------------------------------------------------------------
// Router invariants across tech configurations and MLS pressure.
// ---------------------------------------------------------------------------
class RouterSweep : public ::testing::TestWithParam<std::tuple<bool, double>> {};

TEST_P(RouterSweep, ElectricalOutputsFiniteAndPositive) {
  const auto [hetero, mls_wl_threshold] = GetParam();
  Design d = make_maeri_16pe(9);
  const auto tech3d =
      hetero ? tech::make_hetero_tech(d.info.beol_layers) : tech::make_homo_tech(d.info.beol_layers);
  insert_buffer_trees(d.nl);
  place::place(d, tech3d);
  route::Router router(d, tech3d);
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  for (Id n = 0; n < d.nl.num_nets(); ++n)
    if (!d.nl.is_3d_net(n) && d.nl.net_hpwl_um(n) > mls_wl_threshold) flags[n] = 1;
  router.route_all(flags);
  for (Id n = 0; n < d.nl.num_nets(); ++n) {
    const route::NetRoute& r = router.net_route(n);
    if (d.nl.net(n).sinks.empty()) continue;
    EXPECT_TRUE(std::isfinite(r.res_ohm));
    EXPECT_TRUE(std::isfinite(r.cap_ff));
    EXPECT_GE(r.res_ohm, 0.0f);
    EXPECT_GE(r.cap_ff, 0.0f);
    EXPECT_GE(r.load_ff, r.cap_ff);  // load includes sink pins
    EXPECT_GE(r.detour, 1.0f);
    for (float e : r.sink_elmore_ps) {
      EXPECT_TRUE(std::isfinite(e));
      EXPECT_GE(e, 0.0f);
    }
  }
}

TEST_P(RouterSweep, MlsAppliedImpliesF2FAndTopTierMetal) {
  const auto [hetero, mls_wl_threshold] = GetParam();
  Design d = make_maeri_16pe(10);
  const auto tech3d =
      hetero ? tech::make_hetero_tech(d.info.beol_layers) : tech::make_homo_tech(d.info.beol_layers);
  insert_buffer_trees(d.nl);
  place::place(d, tech3d);
  route::Router router(d, tech3d);
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  for (Id n = 0; n < d.nl.num_nets(); ++n)
    if (!d.nl.is_3d_net(n) && d.nl.net_hpwl_um(n) > mls_wl_threshold) flags[n] = 1;
  router.route_all(flags);
  for (Id n = 0; n < d.nl.num_nets(); ++n) {
    const route::NetRoute& r = router.net_route(n);
    if (!r.mls_applied) continue;
    EXPECT_TRUE(flags[n]);               // only flagged nets share
    EXPECT_GE(r.f2f_vias, 2);            // round trip through the bond
    const Id drv_cell = d.nl.pin(d.nl.net(n).driver).cell;
    const int other = d.nl.cell(drv_cell).tier == 0 ? 1 : 0;
    EXPECT_NE(r.layers_used[other], 0);  // used the other tier's metal
  }
}

TEST_P(RouterSweep, CongestionCensusConsistent) {
  const auto [hetero, mls_wl_threshold] = GetParam();
  (void)mls_wl_threshold;
  Design d = make_maeri_16pe(11);
  const auto tech3d =
      hetero ? tech::make_hetero_tech(d.info.beol_layers) : tech::make_homo_tech(d.info.beol_layers);
  insert_buffer_trees(d.nl);
  place::place(d, tech3d);
  route::Router router(d, tech3d);
  const route::RouteSummary summary = router.route_all({});
  EXPECT_GE(summary.census.max_congestion, summary.census.mean_congestion);
  EXPECT_GE(summary.total_wl_m, 0.0);
}

// trial_route is documented as truly const: the what-if route of one net
// must leave zero observable writes behind — no grid usage, no history, no
// DB revision, no stage write in the access audit — across both MLS modes
// and every sweep configuration. (The MLS labeler calls trial_route
// thousands of times between real routes; one leaked track would skew
// every later congestion decision.)
TEST_P(RouterSweep, TrialRouteLeavesZeroWrites) {
  const auto [hetero, mls_wl_threshold] = GetParam();
  Design d = make_maeri_16pe(15);
  const auto tech3d =
      hetero ? tech::make_hetero_tech(d.info.beol_layers) : tech::make_homo_tech(d.info.beol_layers);
  insert_buffer_trees(d.nl);
  place::place(d, tech3d);
  core::DesignDB db(d, tech3d);
  route::Router& router = db.router({});
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  for (Id n = 0; n < d.nl.num_nets(); ++n)
    if (!d.nl.is_3d_net(n) && d.nl.net_hpwl_um(n) > mls_wl_threshold) flags[n] = 1;
  db.set_route_summary(router.route_all(flags));

  const std::uint64_t fp_before = db.state_fingerprint();
  const auto grid_before = router.grid().usage_state();
  core::AccessRecorder rec;
  {
    core::AuditScope scope(&rec);
    for (Id n = 0; n < std::min<Id>(300, static_cast<Id>(d.nl.num_nets())); ++n) {
      router.trial_route(n, false);
      router.trial_route(n, true);
    }
  }
  EXPECT_TRUE(rec.writes().empty());
  EXPECT_FALSE(rec.took_mutable_design());
  EXPECT_EQ(db.state_fingerprint(), fp_before);
  const auto grid_after = router.grid().usage_state();
  EXPECT_TRUE(grid_before.use == grid_after.use);
  EXPECT_TRUE(grid_before.f2f_use == grid_after.f2f_use);
}

INSTANTIATE_TEST_SUITE_P(Configs, RouterSweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Values(80.0, 150.0, 1e9)));

// ---------------------------------------------------------------------------
// STA invariants across clock periods.
// ---------------------------------------------------------------------------
class StaSweep : public ::testing::TestWithParam<double> {};

TEST_P(StaSweep, SlackMonotoneInClockPeriod) {
  const double clock_ps = GetParam();
  static tech::Tech3D tech3d = tech::make_hetero_tech(6);
  static Design d = [] {
    Design dd = make_maeri_16pe(12);
    insert_buffer_trees(dd.nl);
    place::place(dd, tech3d);
    return dd;
  }();
  static route::Router router = [] {
    route::Router r(d, tech3d);
    r.route_all({});
    return r;
  }();
  sta::TimingGraph tg(d, tech3d, router.routes());
  const auto tight = tg.run(clock_ps);
  const auto loose = tg.run(clock_ps + 100.0);
  // A longer period can only improve every metric.
  EXPECT_GE(loose.wns_ps, tight.wns_ps);
  EXPECT_GE(loose.tns_ns, tight.tns_ns);
  EXPECT_LE(loose.violating_endpoints, tight.violating_endpoints);
  // WNS/TNS consistency: TNS <= WNS (both negative sums), and any violation
  // implies a negative WNS.
  if (tight.violating_endpoints > 0) {
    EXPECT_LT(tight.wns_ps, 0.0);
    EXPECT_LE(tight.tns_ns, tight.wns_ps * 1e-3 + 1e-12);
  }
}

TEST_P(StaSweep, EffectiveFrequencyFormula) {
  const double clock_ps = GetParam();
  static tech::Tech3D tech3d = tech::make_hetero_tech(6);
  static Design d = [] {
    Design dd = make_maeri_16pe(13);
    insert_buffer_trees(dd.nl);
    place::place(dd, tech3d);
    return dd;
  }();
  static route::Router router = [] {
    route::Router r(d, tech3d);
    r.route_all({});
    return r;
  }();
  sta::TimingGraph tg(d, tech3d, router.routes());
  const auto result = tg.run(clock_ps);
  EXPECT_NEAR(result.effective_freq_mhz, 1e6 / (clock_ps - result.wns_ps), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Periods, StaSweep, ::testing::Values(200.0, 300.0, 400.0, 600.0, 1000.0));

// ---------------------------------------------------------------------------
// Oracle labeling invariants across configurations.
// ---------------------------------------------------------------------------
class OracleSweep : public ::testing::TestWithParam<bool> {};

TEST_P(OracleSweep, GainIsDeterministicAndBounded) {
  const bool hetero = GetParam();
  util::set_log_level(util::LogLevel::kWarn);
  mls::FlowConfig cfg;
  cfg.heterogeneous = hetero;
  cfg.run_pdn = false;
  mls::DesignFlow flow(make_maeri_16pe(14), cfg);
  flow.evaluate_no_mls();
  const auto& nl = flow.design().nl;
  int checked = 0;
  for (Id n = 0; n < nl.num_nets() && checked < 100; ++n) {
    const Net& net = nl.net(n);
    if (net.driver == kNullId || net.sinks.empty() || nl.is_3d_net(n)) continue;
    if (nl.net_hpwl_um(n) < 40.0) continue;
    const Id next_cell = nl.pin(net.sinks[0]).cell;
    const double g1 = mls::mls_gain_ps(flow.design(), flow.tech(), flow.router(), n, next_cell);
    const double g2 = mls::mls_gain_ps(flow.design(), flow.tech(), flow.router(), n, next_cell);
    EXPECT_DOUBLE_EQ(g1, g2);
    EXPECT_LT(std::abs(g1), 1000.0);  // gains are tens of ps, never absurd
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

INSTANTIATE_TEST_SUITE_P(Stacks, OracleSweep, ::testing::Bool());

// ---------------------------------------------------------------------------
// ML numerical invariants across widths/heads.
// ---------------------------------------------------------------------------
class TransformerSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TransformerSweep, ForwardIsFiniteAndDeterministic) {
  const auto [dim, heads, length] = GetParam();
  util::Rng rng(99);
  ml::TransformerConfig cfg;
  cfg.input_features = 7;
  cfg.dim = dim;
  cfg.heads = heads;
  cfg.layers = 2;
  cfg.ffn_hidden = dim * 2;
  ml::GraphTransformer enc(cfg, rng);
  util::Rng xr(5);
  const ml::Mat x = ml::Mat::xavier(length, 7, xr);
  const ml::Mat adj = ml::chain_adjacency(length);
  const ml::Mat h1 = enc.forward(x, adj);
  const ml::Mat h2 = enc.forward(x, adj);
  ASSERT_EQ(h1.rows(), length);
  ASSERT_EQ(h1.cols(), dim);
  for (std::size_t i = 0; i < h1.data().size(); ++i) {
    EXPECT_TRUE(std::isfinite(h1.data()[i]));
    EXPECT_DOUBLE_EQ(h1.data()[i], h2.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TransformerSweep,
                         ::testing::Combine(::testing::Values(12, 24, 48),
                                            ::testing::Values(2, 3),
                                            ::testing::Values(2, 9, 40)));

// ---------------------------------------------------------------------------
// Fault-sim invariants across pattern budgets.
// ---------------------------------------------------------------------------
class FaultSweep : public ::testing::TestWithParam<int> {};

TEST_P(FaultSweep, MorePatternsNeverLowerCoverage) {
  const int words = GetParam();
  Design d = make_maeri_16pe(15);
  dft::FaultSimOptions small_opt, big_opt;
  small_opt.pattern_words = 1;
  big_opt.pattern_words = words;
  dft::FaultSimulator small_sim(d.nl, dft::TestModel{}, small_opt);
  dft::FaultSimulator big_sim(d.nl, dft::TestModel{}, big_opt);
  const auto small_r = small_sim.run();
  const auto big_r = big_sim.run();
  EXPECT_EQ(small_r.total_faults, big_r.total_faults);
  EXPECT_GE(big_r.detected + 40, small_r.detected);  // allow pattern-set noise
  EXPECT_GT(big_r.coverage(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Patterns, FaultSweep, ::testing::Values(2, 4, 8));

}  // namespace
