// Tests for the routing grid and the MLS-aware router.
#include <gtest/gtest.h>

#include <utility>

#include "netlist/buffering.hpp"
#include "netlist/generators.hpp"
#include "obs/metrics.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"

namespace {

using namespace gnnmls;
using namespace gnnmls::netlist;
using namespace gnnmls::route;

Design placed_16pe(bool hetero, tech::Tech3D& tech3d) {
  Design d = make_maeri_16pe();
  tech3d = hetero ? tech::make_hetero_tech(d.info.beol_layers)
                  : tech::make_homo_tech(d.info.beol_layers);
  insert_buffer_trees(d.nl);
  place::place(d, tech3d);
  return d;
}

TEST(Grid, CapacityReflectsPitch) {
  const auto tech3d = tech::make_hetero_tech(6);
  RoutingGrid grid(100.0, 100.0, tech3d);
  // Upper layers are wider-pitch -> fewer tracks per gcell.
  EXPECT_GT(grid.capacity(0, 2, 0, 0), grid.capacity(0, 5, 0, 0));
  // M1 is mostly blocked by cell internals.
  EXPECT_LT(grid.capacity(0, 0, 0, 0), grid.capacity(0, 2, 0, 0));
}

TEST(Grid, UsageAndCongestion) {
  const auto tech3d = tech::make_hetero_tech(6);
  RoutingGrid grid(80.0, 80.0, tech3d);
  EXPECT_EQ(grid.usage(0, 2, 1, 1), 0.0f);
  grid.add_usage(0, 2, 1, 1, 5.0f);
  EXPECT_FLOAT_EQ(grid.usage(0, 2, 1, 1), 5.0f);
  EXPECT_GT(grid.congestion(0, 2, 1, 1), 0.0);
  grid.clear_usage();
  EXPECT_EQ(grid.usage(0, 2, 1, 1), 0.0f);
}

TEST(Grid, ReservationShrinksCapacity) {
  const auto tech3d = tech::make_hetero_tech(6);
  RoutingGrid grid(80.0, 80.0, tech3d);
  const float before = grid.capacity(1, 5, 2, 2);
  grid.reserve_layer_fraction(1, 5, 0.3);
  EXPECT_NEAR(grid.capacity(1, 5, 2, 2), before * 0.7f, 1e-4f);
}

TEST(Grid, F2FCapacityFromPitch) {
  const auto tech3d = tech::make_hetero_tech(6);
  RoutingGrid grid(80.0, 80.0, tech3d, {8.0});
  // 8um gcell / 1um pitch -> 64 sites, halved for keep-out.
  EXPECT_NEAR(grid.f2f_capacity(), 32.0f, 1.0f);
}

TEST(Router, RoutesEveryNet) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  Router router(d, tech3d);
  const RouteSummary summary = router.route_all({});
  EXPECT_GT(summary.total_wl_m, 0.0);
  std::size_t routed = 0;
  for (Id n = 0; n < d.nl.num_nets(); ++n) {
    const NetRoute& r = router.net_route(n);
    if (d.nl.net(n).sinks.empty()) continue;
    EXPECT_EQ(r.sink_elmore_ps.size(), d.nl.net(n).sinks.size());
    EXPECT_GT(r.load_ff, 0.0f) << d.nl.net_name(n);
    ++routed;
  }
  EXPECT_GT(routed, 1000u);
}

TEST(RouterCounters, RouteAllTalliesCommittedEdges) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  Router router(d, tech3d);
  obs::Metrics& metrics = obs::Metrics::instance();
  const std::uint64_t before = metrics.counter("route.edges_routed").value();
  const RouteSummary summary = router.route_all({});

  std::uint64_t routed_edges = 0;
  for (Id n = 0; n < d.nl.num_nets(); ++n)
    for (const EdgeRoute& er : router.net_edges(n)) routed_edges += er.routed ? 1 : 0;
  EXPECT_GT(routed_edges, 1000u);
  EXPECT_EQ(metrics.counter("route.edges_routed").value() - before, routed_edges);
  EXPECT_EQ(metrics.gauge("route.f2f_overflow_gcells").value(),
            static_cast<double>(summary.census.f2f_overflow_gcells));
}

TEST(Router, LongerNetsHaveMoreRC) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  Router router(d, tech3d);
  router.route_all({});
  // Correlation check over all 2-pin bottom-tier nets.
  double short_r = 0.0, long_r = 0.0;
  int shorts = 0, longs = 0;
  for (Id n = 0; n < d.nl.num_nets(); ++n) {
    if (d.nl.net(n).sinks.size() != 1) continue;
    const double hpwl = d.nl.net_hpwl_um(n);
    const NetRoute& r = router.net_route(n);
    if (hpwl < 10.0 && hpwl > 1.0) {
      short_r += r.res_ohm;
      ++shorts;
    } else if (hpwl > 100.0) {
      long_r += r.res_ohm;
      ++longs;
    }
  }
  ASSERT_GT(shorts, 0);
  ASSERT_GT(longs, 0);
  EXPECT_GT(long_r / longs, short_r / shorts);
}

TEST(Router, MlsForcesSharedLayers) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  Router router(d, tech3d);
  router.route_all({});
  // Find a long bottom-tier 2D net and compare trials.
  for (Id n = 0; n < d.nl.num_nets(); ++n) {
    const Net& net = d.nl.net(n);
    if (net.driver == kNullId || net.sinks.empty()) continue;
    if (d.nl.is_3d_net(n)) continue;
    if (d.nl.cell(d.nl.pin(net.driver).cell).tier != 0) continue;
    if (d.nl.net_hpwl_um(n) < 120.0) continue;
    const NetRoute base = router.trial_route(n, false);
    const NetRoute shared = router.trial_route(n, true);
    EXPECT_FALSE(base.mls_applied);
    EXPECT_TRUE(shared.mls_applied);
    EXPECT_GE(shared.f2f_vias, 2);          // round trip through the other die
    EXPECT_NE(shared.layers_used[1], 0);    // used top-tier metal
    // Hetero promise: the 28nm metals are much less resistive.
    EXPECT_LT(shared.res_ohm, base.res_ohm);
    return;
  }
  FAIL() << "no suitable long bottom-tier net found";
}

TEST(Router, TrialDoesNotCommit) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  Router router(d, tech3d);
  router.route_all({});
  const auto census_before = router.grid().census();
  for (Id n = 0; n < std::min<Id>(200, static_cast<Id>(d.nl.num_nets())); ++n)
    router.trial_route(n, true);
  const auto census_after = router.grid().census();
  EXPECT_EQ(census_before.overflow_gcells, census_after.overflow_gcells);
  EXPECT_DOUBLE_EQ(census_before.mean_congestion, census_after.mean_congestion);
}

TEST(Router, FlagsIncreaseMlsCountAndF2F) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  Router router(d, tech3d);
  const RouteSummary base = router.route_all({});
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  std::size_t flagged = 0;
  for (Id n = 0; n < d.nl.num_nets(); ++n) {
    if (!d.nl.is_3d_net(n) && d.nl.net_hpwl_um(n) > 100.0 &&
        d.nl.cell(d.nl.pin(d.nl.net(n).driver).cell).tier == 0) {
      flags[n] = 1;
      ++flagged;
    }
  }
  ASSERT_GT(flagged, 0u);
  const RouteSummary shared = router.route_all(flags);
  EXPECT_GT(shared.mls_nets, 0u);
  EXPECT_LE(shared.mls_nets, flagged);
  EXPECT_GT(shared.f2f_pairs, base.f2f_pairs);
}

TEST(Router, RouteAllIsRepeatable) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(false, tech3d);
  Router router(d, tech3d);
  const RouteSummary a = router.route_all({});
  const RouteSummary b = router.route_all({});
  EXPECT_DOUBLE_EQ(a.total_wl_m, b.total_wl_m);
  EXPECT_EQ(a.census.overflow_gcells, b.census.overflow_gcells);
}

// A re-route on the same netlist replaces the routing in place: a flag flip
// moves some nets, re-routing under unchanged flags reproduces the routing
// value for value, and once the netlist moved a full route covers every net
// and is stamped with the new revision.
TEST(RouterDelta, RouteAllReportsNoDeltaRerouteReportsExact) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  Router router(d, tech3d);
  router.route_all({});

  // Record the pre-flip state, flip MLS on for some long nets, re-route.
  const auto snapshot = [&] {
    std::vector<NetRoute> routes(d.nl.num_nets());
    std::vector<std::vector<EdgeRoute>> edges(d.nl.num_nets());
    for (Id n = 0; n < d.nl.num_nets(); ++n) {
      routes[n] = router.net_route(n);
      edges[n] = router.net_edges(n);
    }
    return std::make_pair(routes, edges);
  };
  const auto same_route = [&](const NetRoute& a, const std::vector<EdgeRoute>& a_edges, Id n) {
    return router.net_route(n).wl_um == a.wl_um && router.net_route(n).res_ohm == a.res_ohm &&
           router.net_route(n).cap_ff == a.cap_ff &&
           router.net_route(n).sink_elmore_ps == a.sink_elmore_ps && router.net_edges(n) == a_edges;
  };
  const auto [before, before_edges] = snapshot();
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  std::size_t flagged = 0;
  for (Id n = 0; n < d.nl.num_nets(); ++n)
    if (!d.nl.is_3d_net(n) && d.nl.net_hpwl_um(n) > 100.0 &&
        d.nl.cell(d.nl.pin(d.nl.net(n).driver).cell).tier == 0) {
      flags[n] = 1;
      ++flagged;
    }
  ASSERT_GT(flagged, 0u);
  router.route_all(flags);
  std::size_t moved = 0;
  for (Id n = 0; n < d.nl.num_nets(); ++n)
    if (!same_route(before[n], before_edges[n], n)) ++moved;
  EXPECT_GT(moved, 0u);

  // Re-routing under unchanged flags reproduces the routing.
  const auto [flipped, flipped_edges] = snapshot();
  router.route_all(flags);
  for (Id n = 0; n < d.nl.num_nets(); ++n)
    EXPECT_TRUE(same_route(flipped[n], flipped_edges[n], n)) << "net " << n;

  // Once the netlist moved, a full route covers the grown netlist.
  d.nl.add_cell(tech::CellKind::kBuf, 0, 50.0f, 50.0f);
  router.route_all({});
  EXPECT_EQ(router.routes().size(), d.nl.num_nets());
  EXPECT_EQ(router.routed_revision(), d.nl.revision());
}

// Negotiation must pay for itself: the final overflow can never exceed
// the same engine's with negotiation switched off (the revert-on-worse rule
// makes the loop monotone against its own start).
TEST(RouterNegotiation, OverflowNoWorseThanUnnegotiated) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  for (Id n = 0; n < d.nl.num_nets(); ++n)
    if (!d.nl.is_3d_net(n) && d.nl.net_hpwl_um(n) > 60.0) flags[n] = 1;

  Router negotiated(d, tech3d);
  const RouteSummary neg = negotiated.route_all(flags);
  RouterOptions initial_opt;
  initial_opt.max_negotiation_iters = 0;
  Router initial(d, tech3d, initial_opt);
  const RouteSummary ini = initial.route_all(flags);
  EXPECT_EQ(ini.negotiation_iters, 0u);
  EXPECT_GT(neg.negotiation_iters, 0u);
  EXPECT_LE(neg.census.overflow_gcells + neg.census.f2f_overflow_gcells,
            ini.census.overflow_gcells + ini.census.f2f_overflow_gcells);
}

TEST(Router, DescribeLayers) {
  NetRoute r;
  r.layers_used[0] = 0b00111110;  // M2..M6 bottom
  r.layers_used[1] = 0b00110000;  // M5-6 top
  EXPECT_EQ(Router::describe_layers(r), "M2-6(bot)+M5-6(top)");
  NetRoute only_top;
  only_top.layers_used[1] = 0b00100000;
  EXPECT_EQ(Router::describe_layers(only_top), "M6(top)");
  EXPECT_EQ(Router::describe_layers(NetRoute{}), "-");
}

}  // namespace
