// Tests for power estimation, PDN synthesis, and the IR-drop solver.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "netlist/buffering.hpp"
#include "netlist/generators.hpp"
#include "pdn/irdrop.hpp"
#include "pdn/pdn.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"

namespace {

using namespace gnnmls;
using namespace gnnmls::pdn;

struct RoutedFixture : ::testing::Test {
  void SetUp() override {
    d = netlist::make_maeri_16pe();
    tech3d = tech::make_hetero_tech(d.info.beol_layers);
    netlist::insert_buffer_trees(d.nl);
    place::place(d, tech3d);
    router = std::make_unique<route::Router>(d, tech3d);
    router->route_all({});
  }
  netlist::Design d;
  tech::Tech3D tech3d;
  std::unique_ptr<route::Router> router;
};

TEST_F(RoutedFixture, PowerBreakdownIsConsistent) {
  const PowerReport p = estimate_power(d, tech3d, router->routes());
  EXPECT_GT(p.dynamic_mw, 0.0);
  EXPECT_GT(p.wire_mw, 0.0);
  EXPECT_GT(p.sram_mw, 0.0);
  EXPECT_GT(p.leakage_mw, 0.0);
  EXPECT_NEAR(p.total_mw, p.dynamic_mw + p.wire_mw + p.sram_mw + p.leakage_mw + p.ls_mw, 1e-9);
  EXPECT_NEAR(p.total_mw, p.per_tier_mw[0] + p.per_tier_mw[1], p.total_mw * 0.3);
}

TEST_F(RoutedFixture, PowerScalesWithActivity) {
  PowerOptions low, high;
  low.activity = 0.05;
  high.activity = 0.30;
  EXPECT_GT(estimate_power(d, tech3d, router->routes(), high).total_mw,
            estimate_power(d, tech3d, router->routes(), low).total_mw * 2.0);
}

TEST_F(RoutedFixture, PowerDensityMapCoversLoad) {
  const auto map = power_density_map(d, tech3d, router->routes(), 1, 16, 16);
  double total = 0.0;
  for (double v : map) total += v;
  EXPECT_GT(total, 0.0);  // the memory die burns power
}

TEST(IrDrop, ZeroLoadZeroDrop) {
  PdnGridSpec spec;
  const auto r = solve_ir_drop(spec, {}, 0, 0);
  EXPECT_NEAR(r.max_drop_mv, 0.0, 1e-9);
}

TEST(IrDrop, CenterLoadDropsMostAtCenter) {
  PdnGridSpec spec;
  spec.die_w_um = 500.0;
  spec.die_h_um = 500.0;
  std::vector<double> pmap(9, 0.0);
  pmap[4] = 200.0;  // 200 mW at the center cell of a 3x3 map
  const auto r = solve_ir_drop(spec, pmap, 3, 3);
  EXPECT_GT(r.max_drop_mv, 0.0);
  // The hottest node should be near the grid center.
  std::size_t arg = 0;
  for (std::size_t i = 0; i < r.node_drop_mv.size(); ++i)
    if (r.node_drop_mv[i] > r.node_drop_mv[arg]) arg = i;
  const int cx = static_cast<int>(arg) % r.grid_nx;
  const int cy = static_cast<int>(arg) / r.grid_nx;
  EXPECT_NEAR(cx, r.grid_nx / 2, r.grid_nx / 4);
  EXPECT_NEAR(cy, r.grid_ny / 2, r.grid_ny / 4);
}

TEST(IrDrop, WiderStrapsReduceDrop) {
  PdnGridSpec narrow, wide;
  narrow.strap_width_um = 0.5;
  wide.strap_width_um = 3.0;
  std::vector<double> pmap(16, 20.0);
  const auto rn = solve_ir_drop(narrow, pmap, 4, 4);
  const auto rw = solve_ir_drop(wide, pmap, 4, 4);
  EXPECT_GT(rn.max_drop_mv, rw.max_drop_mv);
}

TEST(IrDrop, MorePowerMoreDrop) {
  PdnGridSpec spec;
  std::vector<double> low(16, 5.0), high(16, 50.0);
  EXPECT_GT(solve_ir_drop(spec, high, 4, 4).max_drop_mv,
            solve_ir_drop(spec, low, 4, 4).max_drop_mv * 2.0);
}

// Dense nodal analysis of the same grid, solved by Gaussian elimination with
// partial pivoting: the reference the sine-transform solve must reproduce.
// The power map has one cell per PDN node, so node (x, y) draws map[y][x].
std::vector<double> dense_drop_mv(const PdnGridSpec& spec, const std::vector<double>& pmap,
                                  int nx, int ny) {
  const double g_x = spec.strap_width_um / (spec.sheet_r_ohm * (spec.die_w_um / nx));
  const double g_y = spec.strap_width_um / (spec.sheet_r_ohm * (spec.die_h_um / ny));
  const int m = nx - 2, n = ny - 2, size = m * n;
  auto idx = [m](int x, int y) { return (y - 1) * m + (x - 1); };
  std::vector<std::vector<double>> a(size, std::vector<double>(size + 1, 0.0));
  for (int y = 1; y <= n; ++y) {
    for (int x = 1; x <= m; ++x) {
      std::vector<double>& row = a[idx(x, y)];
      row[idx(x, y)] = 2.0 * g_x + 2.0 * g_y;
      const std::pair<int, int> nbrs[] = {{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}};
      for (const auto& [bx, by] : nbrs) {
        if (bx < 1 || bx > m || by < 1 || by > n) continue;  // boundary: zero drop
        row[idx(bx, by)] -= by == y ? g_x : g_y;
      }
      row[size] = pmap[static_cast<std::size_t>(y) * nx + x] * 1e-3 / spec.vdd;
    }
  }
  for (int col = 0; col < size; ++col) {
    int piv = col;
    for (int r = col + 1; r < size; ++r)
      if (std::abs(a[r][col]) > std::abs(a[piv][col])) piv = r;
    std::swap(a[col], a[piv]);
    for (int r = col + 1; r < size; ++r) {
      const double f = a[r][col] / a[col][col];
      for (int c = col; c <= size; ++c) a[r][c] -= f * a[col][c];
    }
  }
  std::vector<double> d(size);
  for (int r = size - 1; r >= 0; --r) {
    double acc = a[r][size];
    for (int c = r + 1; c < size; ++c) acc -= a[r][c] * d[c];
    d[r] = acc / a[r][r];
  }
  std::vector<double> drop_mv(static_cast<std::size_t>(nx) * ny, 0.0);
  for (int y = 1; y <= n; ++y)
    for (int x = 1; x <= m; ++x)
      drop_mv[static_cast<std::size_t>(y) * nx + x] = d[idx(x, y)] * 1e3;
  return drop_mv;
}

// A 75x49 um die at a 7 um pitch: a 10x7 node grid whose x segments (7.5 um)
// are longer than its y segments (7 um), so g_x != g_y.
PdnGridSpec small_skewed_spec() {
  PdnGridSpec spec;
  spec.die_w_um = 75.0;
  spec.die_h_um = 49.0;
  spec.strap_width_um = 1.3;
  return spec;
}

std::vector<double> uneven_power_map(int nx, int ny) {
  std::vector<double> pmap(static_cast<std::size_t>(nx) * ny);
  for (std::size_t i = 0; i < pmap.size(); ++i) pmap[i] = 0.5 + static_cast<double>(i * 37 % 11);
  return pmap;
}

TEST(IrDrop, MatchesDenseNodalSolve) {
  const PdnGridSpec spec = small_skewed_spec();
  const int nx = 10, ny = 7;
  const std::vector<double> pmap = uneven_power_map(nx, ny);
  const auto r = solve_ir_drop(spec, pmap, nx, ny);
  ASSERT_EQ(r.grid_nx, nx);
  ASSERT_EQ(r.grid_ny, ny);
  const std::vector<double> ref = dense_drop_mv(spec, pmap, nx, ny);
  double ref_max = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(r.node_drop_mv[i], ref[i], 1e-9) << "node " << i;
    ref_max = std::max(ref_max, ref[i]);
  }
  EXPECT_GT(ref_max, 1.0);  // a drop large enough for 1e-9 mV to be a tight bound
  EXPECT_NEAR(r.max_drop_mv, ref_max, 1e-9);
}

TEST(IrDrop, DropScalesAsInverseStrapWidth) {
  PdnGridSpec spec = small_skewed_spec();
  const std::vector<double> pmap = uneven_power_map(10, 7);
  spec.strap_width_um = 1.0;
  const auto unit = solve_ir_drop(spec, pmap, 10, 7);
  for (const double w : {0.56, 2.0, 3.15}) {
    spec.strap_width_um = w;
    const auto r = solve_ir_drop(spec, pmap, 10, 7);
    EXPECT_NEAR(r.max_drop_mv * w, unit.max_drop_mv, unit.max_drop_mv * 1e-12) << "W=" << w;
    EXPECT_NEAR(r.mean_drop_mv * w, unit.mean_drop_mv, unit.mean_drop_mv * 1e-12) << "W=" << w;
    for (std::size_t i = 0; i < r.node_drop_mv.size(); ++i)
      EXPECT_NEAR(r.node_drop_mv[i] * w, unit.node_drop_mv[i], unit.max_drop_mv * 1e-12);
  }
}

TEST(IrDrop, RenderedMapHasContent) {
  PdnGridSpec spec;
  std::vector<double> pmap(16, 30.0);
  const auto r = solve_ir_drop(spec, pmap, 4, 4);
  const std::string art = render_drop_map(r, 24);
  EXPECT_GT(art.size(), 24u);
  EXPECT_NE(art.find('\n'), std::string::npos);
}

TEST_F(RoutedFixture, PdnSynthesisMeetsBudgetOrSaturates) {
  PdnOptions opt;
  opt.ir_budget_pct = 10.0;
  const PdnDesign pdn = synthesize_pdn(d, tech3d, router->routes(), opt);
  for (int tier = 0; tier < 2; ++tier) {
    EXPECT_GE(pdn.utilization[tier], opt.min_utilization - 1e-9);
    EXPECT_LE(pdn.utilization[tier], opt.max_utilization + 1e-9);
    EXPECT_GT(pdn.strap_width_um[tier], 0.0);
  }
  // Budget met (or the synthesis hit its utilization ceiling).
  const bool met = pdn.worst_ir_pct <= opt.ir_budget_pct + 1e-6;
  const bool saturated = pdn.utilization[0] >= opt.max_utilization - 1e-6 ||
                         pdn.utilization[1] >= opt.max_utilization - 1e-6;
  EXPECT_TRUE(met || saturated);
}

TEST_F(RoutedFixture, TighterBudgetNeedsMoreMetal) {
  PdnOptions loose, tight;
  loose.ir_budget_pct = 12.0;
  tight.ir_budget_pct = 1.0;
  const PdnDesign a = synthesize_pdn(d, tech3d, router->routes(), loose);
  const PdnDesign b = synthesize_pdn(d, tech3d, router->routes(), tight);
  EXPECT_GE(b.utilization[1], a.utilization[1]);
}

// The grid spec synthesize_pdn builds for one tier, at utilization util.
PdnGridSpec tier_spec(const netlist::Design& d, const tech::Tech3D& tech3d, int tier,
                      const PdnOptions& opt, double util) {
  PdnGridSpec spec;
  spec.die_w_um = d.info.die_w_um;
  spec.die_h_um = d.info.die_h_um;
  spec.strap_pitch_um = opt.strap_pitch_um;
  spec.vdd = tier == 0 ? tech3d.vdd_bottom() : tech3d.vdd_top();
  const tech::BeolStack& stack = tier == 0 ? tech3d.beol_bottom : tech3d.beol_top;
  const tech::MetalLayer& top = stack.layer(stack.top());
  spec.sheet_r_ohm = top.r_ohm_per_um * top.width_um;
  spec.strap_width_um = util * opt.strap_pitch_um;
  return spec;
}

TEST_F(RoutedFixture, PdnSynthesisPicksSameUtilizationAsSolvingEveryStep) {
  const double budget_mv_per_pct = 0.01 * tech3d.vdd_min() * 1e3;
  for (const double budget_pct : {0.1, 0.2, 0.3, 0.5, 1.0, 10.0}) {
    PdnOptions opt;
    opt.ir_budget_pct = budget_pct;
    const PdnDesign pdn = synthesize_pdn(d, tech3d, router->routes(), opt);
    for (int tier = 0; tier < 2; ++tier) {
      const auto pmap = power_density_map(d, tech3d, router->routes(), tier, 48, 48);
      // The sweep as it ran before the closed form: one solve per step.
      double util = opt.min_utilization;
      for (; util <= opt.max_utilization + 1e-9; util += 0.02) {
        const auto r = solve_ir_drop(tier_spec(d, tech3d, tier, opt, util), pmap, 48, 48);
        if (r.max_drop_mv <= budget_pct * budget_mv_per_pct) break;
      }
      util = std::min(util, opt.max_utilization);
      EXPECT_EQ(pdn.utilization[tier], util) << "budget " << budget_pct << "% tier " << tier;
      const auto at_u = solve_ir_drop(tier_spec(d, tech3d, tier, opt, util), pmap, 48, 48);
      EXPECT_NEAR(pdn.ir[tier].max_drop_mv, at_u.max_drop_mv, at_u.max_drop_mv * 1e-12);
    }
  }
}

TEST_F(RoutedFixture, SaturatedSweepReportsDropAtRecordedUtilization) {
  // MAERI-16 drops under 5 mV at U = 8%, so only a 0.1% budget (0.81 mV)
  // runs the sweep past max_utilization.
  PdnOptions opt;
  opt.ir_budget_pct = 0.1;
  const PdnDesign pdn = synthesize_pdn(d, tech3d, router->routes(), opt);
  bool saturated = false;
  double worst_pct = 0.0;
  for (int tier = 0; tier < 2; ++tier) {
    saturated |= pdn.utilization[tier] == opt.max_utilization;
    EXPECT_DOUBLE_EQ(pdn.strap_width_um[tier], pdn.utilization[tier] * opt.strap_pitch_um);
    PdnGridSpec spec = tier_spec(d, tech3d, tier, opt, pdn.utilization[tier]);
    spec.strap_width_um = pdn.strap_width_um[tier];
    const auto pmap = power_density_map(d, tech3d, router->routes(), tier, 48, 48);
    const auto r = solve_ir_drop(spec, pmap, 48, 48);
    EXPECT_NEAR(pdn.ir[tier].max_drop_mv, r.max_drop_mv, r.max_drop_mv * 1e-12) << "tier " << tier;
    worst_pct = std::max(worst_pct, r.max_drop_mv / (tech3d.vdd_min() * 1e3) * 100.0);
  }
  ASSERT_TRUE(saturated) << "a 0.1% budget should exhaust the utilization sweep";
  EXPECT_NEAR(pdn.worst_ir_pct, worst_pct, worst_pct * 1e-12);
}

}  // namespace
