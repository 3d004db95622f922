// Tests for the routing grid and the MLS-aware router.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <random>
#include <tuple>
#include <utility>

#include "ft/error.hpp"
#include "ft/fault_plan.hpp"
#include "netlist/buffering.hpp"
#include "netlist/generators.hpp"
#include "obs/metrics.hpp"
#include "place/placer.hpp"
#include "route/negotiate.hpp"
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

// MLS on every 2D net longer than 60 um: on the heterogeneous MAERI-16 this
// negotiates for several iterations and reverts at least one of them.
std::vector<std::uint8_t> long_2d_net_flags(const Design& d) {
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  for (Id n = 0; n < d.nl.num_nets(); ++n)
    if (!d.nl.is_3d_net(n) && d.nl.net_hpwl_um(n) > 60.0) flags[n] = 1;
  return flags;
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
  RoutingGrid grid(80.0, 80.0, tech3d);
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

// Negotiation must pay for itself: the final overflow can never exceed the
// overflow the initial routing left before negotiation (the
// revert-on-worse rule makes the loop monotone against its own start).
TEST(RouterNegotiation, OverflowNoWorseThanUnnegotiated) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  Router router(d, tech3d);
  const RouteSummary s = router.route_all(long_2d_net_flags(d));
  EXPECT_GT(s.negotiation_iters, 0u);
  EXPECT_GT(s.initial_overflow, 0u);
  EXPECT_LE(s.census.overflow_gcells + s.census.f2f_overflow_gcells, s.initial_overflow);
}

// RouteGolden pins one negotiated MAERI-16 route and one ECO repair of it to
// their exact bits: a hash over every EdgeRoute, the negotiation statistics
// and the final census. The router is a pure
// function of (netlist, flags), so a change that moves any of these
// values changes the routes every table is built on; re-pin on purpose and
// say so in CHANGES.md. The configuration is long_2d_net_flags on the
// heterogeneous stack.

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Hash of every net's per-edge routing results, in net and edge order.
std::uint64_t edge_route_hash(const Router& router) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (Id n = 0; n < router.routes().size(); ++n) {
    const std::vector<EdgeRoute>& edges = router.net_edges(n);
    h = fnv(h, edges.size());
    for (const EdgeRoute& er : edges) {
      h = fnv(h, er.routed | (er.shared << 1) | (er.fallback << 2));
      h = fnv(h, er.route_tier | (er.layer_lo << 8) | (er.hlayer << 16) | (er.vlayer << 24) |
                     (std::uint64_t{er.f2f} << 32));
      h = fnv(h, er.gx1 | (er.gy1 << 16) | (std::uint64_t{er.gx2} << 32) |
                     (std::uint64_t{er.gy2} << 48));
      h = fnv(h, std::bit_cast<std::uint32_t>(er.wl_um) |
                     (std::uint64_t{std::bit_cast<std::uint32_t>(er.res_ohm)} << 32));
      h = fnv(h, std::bit_cast<std::uint32_t>(er.cap_ff) |
                     (std::uint64_t{std::bit_cast<std::uint32_t>(er.detour)} << 32));
      h = fnv(h, std::bit_cast<std::uint32_t>(er.overflow) |
                     (std::uint64_t{er.candidates} << 32));
    }
  }
  return h;
}

// Splices a buffer pair behind the first driven net: one touched old net
// plus one new net. Returns the dirty list for reroute_nets.
std::vector<Id> splice_buffer_pair(Netlist& nl) {
  const std::size_t old_nets = nl.num_nets();
  const std::size_t mark = nl.journal_size();
  Id tapped = kNullId;
  for (Id n = 0; n < nl.num_nets(); ++n)
    if (nl.net(n).driver != kNullId) {
      tapped = n;
      break;
    }
  const Id b1 = nl.add_cell(tech::CellKind::kBuf, 0, 80.0f, 90.0f);
  const Id b2 = nl.add_cell(tech::CellKind::kBuf, 0, 200.0f, 150.0f);
  nl.add_sink(tapped, nl.input_pin(b1, 0));
  nl.connect(b1, 0, b2, 0);
  std::vector<Id> dirty;
  for (const Id n : nl.journal().subspan(mark))
    if (n < old_nets) dirty.push_back(n);
  return dirty;
}

void print_route_golden(const char* tag, const Router& router, const RouteSummary& s) {
  std::printf("golden %s: hash=0x%016llx iters=%zu ripups=%zu initial=%zu "
              "overflow=%zu f2f_overflow=%zu max=%.17g mean=%.17g\n",
              tag, static_cast<unsigned long long>(edge_route_hash(router)),
              s.negotiation_iters, s.negotiation_ripups, s.initial_overflow,
              s.census.overflow_gcells, s.census.f2f_overflow_gcells, s.census.max_congestion,
              s.census.mean_congestion);
}

TEST(RouteGolden, Maeri16NegotiatedRoutesAreBitIdentical) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  Router router(d, tech3d);

  const std::vector<std::uint8_t> flags = long_2d_net_flags(d);
  const RouteSummary s = router.route_all(flags);
  print_route_golden("route_all", router, s);
  EXPECT_EQ(edge_route_hash(router), 0x0bbc4c74e4f4d800ULL);
  EXPECT_EQ(s.negotiation_iters, 6u);
  EXPECT_EQ(s.negotiation_ripups, 11522u);
  EXPECT_EQ(s.initial_overflow, 128u);
  EXPECT_EQ(s.census.overflow_gcells, 124u);
  EXPECT_EQ(s.census.f2f_overflow_gcells, 0u);
  EXPECT_EQ(s.census.max_congestion, 1.2684671878814697);
  EXPECT_EQ(s.census.mean_congestion, 0.29753774059198879);

  const std::vector<Id> dirty = splice_buffer_pair(d.nl);
  const RouteSummary e = router.reroute_nets(dirty, flags);
  print_route_golden("eco", router, e);
  EXPECT_EQ(edge_route_hash(router), 0x6d0d063306f1baf9ULL);
  EXPECT_EQ(e.census.overflow_gcells, 120u);
  EXPECT_EQ(e.census.f2f_overflow_gcells, 0u);
  EXPECT_EQ(e.census.max_congestion, 1.2684671878814697);
  EXPECT_EQ(e.census.mean_congestion, 0.29744167265737459);
}

// Grid usage compared cell by cell, tracks then F2F pads.
void expect_same_usage(const RoutingGrid& want, const RoutingGrid& got) {
  ASSERT_EQ(want.num_track_cells(), got.num_track_cells());
  ASSERT_EQ(want.num_f2f_cells(), got.num_f2f_cells());
  for (std::size_t i = 0; i < want.num_track_cells(); ++i)
    ASSERT_EQ(want.usage_at(i), got.usage_at(i)) << "track cell " << i;
  for (std::size_t i = 0; i < want.num_f2f_cells(); ++i)
    ASSERT_EQ(want.f2f_usage_at(i), got.f2f_usage_at(i)) << "f2f cell " << i;
}

// Phase 1 routes every edge against the live grid and commits it before it
// prices the next, so edge k's result is route_edge() on the grid holding
// exactly edges 0..k-1. Identical edges make the difference visible: each one
// records the usage its predecessors added (EdgeRoute::overflow), where a
// router that priced them against one grid state would record the same value
// for all of them.
TEST(RouterNegotiation, EachEdgeSeesTheEdgesCommittedBeforeIt) {
  tech::Tech3D tech3d;
  const Design d = placed_16pe(true, tech3d);
  RoutingGrid grid(d.info.die_w_um, d.info.die_h_um, tech3d);
  const Terminal a{20.0f, 20.0f, 0, 0.0f}, b{90.0f, 70.0f, 0, 1.0f};
  constexpr std::uint32_t kEdges = 6;
  std::vector<EdgeTask> edges;
  for (std::uint32_t k = 0; k < kEdges; ++k) edges.push_back(EdgeTask{k, 0, a, b, false});
  std::vector<float> history(grid.num_track_cells(), 0.0f);
  const CandidateTable candidates(tech3d);
  std::vector<EdgeRoute> routes(kEdges);
  const NegotiationStats stats =
      route_negotiated(NegotiationInput{grid, candidates, edges, history, routes});
  EXPECT_EQ(stats.initial_overflow, 0u);
  EXPECT_EQ(stats.iterations, 0u);

  RoutingGrid replay(d.info.die_w_um, d.info.die_h_um, tech3d);
  const EdgeCostModel model{replay, candidates, history.data()};
  for (std::uint32_t k = 0; k < kEdges; ++k) {
    EXPECT_EQ(routes[k], route_edge(model, a, b, false)) << "edge " << k;
    commit_edge(replay, routes[k], 1.0f);
  }
  EXPECT_GT(routes[kEdges - 1].overflow, routes[0].overflow);
  expect_same_usage(replay, grid);
}

// The same with one free track: the other tier is full except for one track
// along the cheapest shared pair. Of two identical MLS edges the first takes
// that track; the second sees it taken, finds no shared pair that fits and
// falls back to native metal, so the two end on different layer pairs.
TEST(RouterNegotiation, OneFreeSharedTrackGoesToTheFirstEdge) {
  tech::Tech3D tech3d;
  const Design d = placed_16pe(true, tech3d);
  RoutingGrid grid(d.info.die_w_um, d.info.die_h_um, tech3d);
  const Terminal a{20.0f, 20.0f, 0, 0.0f}, b{90.0f, 70.0f, 0, 1.0f};

  const CandidateTable candidates(tech3d);
  const EdgeRoute cheapest = route_edge(EdgeCostModel{grid, candidates, nullptr}, a, b, true);
  ASSERT_TRUE(cheapest.routed);
  ASSERT_TRUE(cheapest.shared);
  const std::size_t plane = static_cast<std::size_t>(grid.nx()) * grid.ny();
  for (int layer = 0; layer < grid.num_layers(cheapest.route_tier); ++layer) {
    const std::size_t base = grid.track_index(cheapest.route_tier, layer, 0, 0);
    for (std::size_t i = base; i < base + plane; ++i) grid.add_usage_at(i, grid.capacity_at(i));
  }
  for_each_cell(
      grid, cheapest,
      [&](std::size_t i) {
        EXPECT_GE(grid.capacity_at(i), 1.0f);
        grid.add_usage_at(i, -1.0f);
        return false;
      },
      [](std::size_t) { return false; });
  const RoutingGrid before = grid;

  const std::vector<EdgeTask> edges = {EdgeTask{0, 0, a, b, true}, EdgeTask{1, 0, a, b, true}};
  std::vector<float> history(grid.num_track_cells(), 0.0f);
  std::vector<EdgeRoute> routes(2);
  const NegotiationStats stats =
      route_negotiated(NegotiationInput{grid, candidates, edges, history, routes});

  const EdgeRoute& first = routes[0];
  const EdgeRoute& second = routes[1];
  EXPECT_TRUE(first.shared);
  EXPECT_EQ(first.route_tier, cheapest.route_tier);
  EXPECT_EQ(first.layer_lo, cheapest.layer_lo);
  EXPECT_TRUE(second.fallback);
  EXPECT_FALSE(second.shared);
  EXPECT_NE(second.route_tier, first.route_tier);
  EXPECT_EQ(stats.initial_overflow, 0u);
  EXPECT_EQ(stats.iterations, 0u);

  // The grid holds the prefill plus exactly the two committed footprints.
  RoutingGrid want = before;
  commit_edge(want, first, 1.0f);
  commit_edge(want, second, 1.0f);
  expect_same_usage(want, grid);
}

// route_edge() as a walk per candidate, straight from the tech: the
// reference that the one-walk pricing over the CandidateTable must match bit
// for bit. The constants are topology.cpp's kMinMlsEdgeUm,
// kCongestionPenaltyPs and kMaxDetour, and the nominal 1.5 kOhm driver.
EdgeRoute lone_walk_route_edge(const RoutingGrid& grid, const tech::Tech3D& tech,
                               const float* history, const Terminal& a, const Terminal& b,
                               bool mls) {
  constexpr double kMinMlsEdgeUm = 16.0, kPenaltyPs = 2.0, kMaxDetour = 2.5;
  auto stack_of = [&](int tier) -> const tech::BeolStack& {
    return tier == 0 ? tech.beol_bottom : tech.beol_top;
  };
  EdgeRoute out;
  const double g = grid.gcell_um();
  const double len = std::abs(a.x - b.x) + std::abs(a.y - b.y) + 0.5 * g;
  const double len_h = std::abs(a.x - b.x) + 0.25 * g;
  const double len_v = std::abs(a.y - b.y) + 0.25 * g;
  out.gx1 = static_cast<std::uint16_t>(grid.gx(a.x));
  out.gy1 = static_cast<std::uint16_t>(grid.gy(a.y));
  out.gx2 = static_cast<std::uint16_t>(grid.gx(b.x));
  out.gy2 = static_cast<std::uint16_t>(grid.gy(b.y));
  const bool cross_tier = a.tier != b.tier;
  const bool force_shared = mls && !cross_tier && len >= kMinMlsEdgeUm;
  double f2f_penalty = 0.0;
  if (force_shared || cross_tier) {
    const double fc =
        grid.f2f_congestion(out.gx1, out.gy1) + grid.f2f_congestion(out.gx2, out.gy2);
    f2f_penalty = kPenaltyPs * 2.0 * fc * fc;
  }

  EdgeRoute pick;
  double pick_cost = 0.0, pick_res = 0.0, pick_cap = 0.0, pick_over = 0.0;
  std::uint32_t count = 0;
  bool shared_fits = false;
  auto consider = [&](int tier, int lo, int f2f, bool shared) {
    const tech::BeolStack& stack = stack_of(tier);
    const tech::MetalLayer& l0 = stack.layer(lo);
    const tech::MetalLayer& l1 = stack.layer(lo + 1);
    const bool h0 = l0.dir == tech::LayerDir::kHorizontal;
    const tech::MetalLayer& lh = h0 ? l0 : l1;
    const tech::MetalLayer& lv = h0 ? l1 : l0;
    double res = len_h * lh.r_ohm_per_um + len_v * lv.r_ohm_per_um;
    double cap = len_h * lh.c_ff_per_um + len_v * lv.c_ff_per_um;
    double via_r = 0.0, via_c = 0.0;
    auto add_stack = [&](const tech::BeolStack& st, int levels) {
      via_r += levels * st.via_r_ohm;
      via_c += levels * st.via_c_ff;
    };
    if (f2f == 0) {
      add_stack(stack, lo + 1);
      add_stack(stack, lo + 1);
    } else {
      add_stack(stack_of(a.tier), a.tier == tier ? lo + 1 : stack_of(a.tier).num_layers() - 1);
      add_stack(stack_of(b.tier), b.tier == tier ? lo + 1 : stack_of(b.tier).num_layers() - 1);
      if (a.tier != tier || shared) add_stack(stack, std::max(stack.num_layers() - 2 - lo, 0));
    }
    res += via_r + f2f * tech.f2f.r_ohm;
    cap += via_c + f2f * tech.f2f.c_ff;

    EdgeRoute probe = out;
    probe.routed = true;
    probe.route_tier = static_cast<std::uint8_t>(tier);
    probe.layer_lo = static_cast<std::uint8_t>(lo);
    probe.hlayer = static_cast<std::uint8_t>(h0 ? lo : lo + 1);
    probe.vlayer = static_cast<std::uint8_t>(h0 ? lo + 1 : lo);
    double penalty = 0.0, over = 0.0;
    for_each_cell(
        grid, probe,
        [&](std::size_t i) {
          const double cong = grid.congestion_at(i);
          penalty += kPenaltyPs * cong * cong;
          if (history != nullptr) penalty += history[i];
          over = std::max(over, cong);
          return false;
        },
        [](std::size_t) { return false; });
    const double cost = 1e-3 * (1.5 * 1e3 * cap + res * (cap * 0.5 + 2.0)) + penalty +
                        (f2f > 0 ? f2f_penalty : 0.0);
    if (over < 1.0) shared_fits = true;
    if (count == 0 || cost < pick_cost) {
      pick = probe;
      pick.f2f = static_cast<std::uint8_t>(f2f);
      pick.shared = shared;
      pick_cost = cost;
      pick_res = res;
      pick_cap = cap;
      pick_over = over;
    }
    ++count;
  };
  auto native = [&](int tier) {
    for (int lo = 1; lo + 1 < stack_of(tier).num_layers(); ++lo) consider(tier, lo, 0, false);
  };
  if (force_shared) {
    const int other = a.tier == 0 ? 1 : 0;
    const int top = stack_of(other).num_layers() - 1;
    for (int k = 0; k < kSharedLayers; ++k)
      if (top - 1 - k >= 1) consider(other, top - 1 - k, 2, true);
    if (!shared_fits) {
      out.fallback = true;
      count = 0;
      native(a.tier);
    }
  } else if (cross_tier) {
    for (int tier = 0; tier < 2; ++tier)
      for (int lo = 1; lo + 1 < stack_of(tier).num_layers(); ++lo) consider(tier, lo, 1, false);
  } else {
    native(a.tier);
  }
  out.candidates = count;
  if (count == 0) return out;
  const double detour = std::min(kMaxDetour, 1.0 + 0.5 * std::max(0.0, pick_over - 1.0));
  out.routed = true;
  out.route_tier = pick.route_tier;
  out.layer_lo = pick.layer_lo;
  out.hlayer = pick.hlayer;
  out.vlayer = pick.vlayer;
  out.f2f = pick.f2f;
  out.shared = pick.shared;
  out.wl_um = static_cast<float>((len_h + len_v) * detour);
  out.res_ohm = static_cast<float>(pick_res * detour);
  out.cap_ff = static_cast<float>(pick_cap * detour);
  out.detour = static_cast<float>(detour);
  out.overflow = static_cast<float>(pick_over);
  return out;
}

// One walk prices every candidate of an edge, with interleaved accumulators
// in groups of up to four; each EdgeRoute must equal, field for field, the
// walk-per-candidate reference. The grid is MAERI-16's die with random
// whole-number usage, random F2F usage and a random history surface: light
// on the right half, so MLS edges there fit a shared pair, and overfull on
// the left half, so MLS edges there fall back to native metal. Stacks of 6,
// 7 and 9 layers give native and cross-tier lists of 4..14 candidates, so
// every group size runs.
TEST(RouterPricing, OneWalkMatchesLoneWalks) {
  tech::Tech3D maeri_tech;
  const Design d = placed_16pe(true, maeri_tech);
  const double w = d.info.die_w_um, h = d.info.die_h_um;
  for (const int layers : {6, 7, 9}) {
    const tech::Tech3D tech3d = tech::make_hetero_tech(layers);
    RoutingGrid grid(w, h, tech3d);
    std::mt19937_64 rng(0x5eed + static_cast<unsigned>(layers));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const std::size_t plane = static_cast<std::size_t>(grid.nx()) * grid.ny();
    for (std::size_t i = 0; i < grid.num_track_cells(); ++i) {
      const bool heavy = static_cast<int>(i % plane) % grid.nx() < grid.nx() / 2;
      const double fill = (heavy ? 1.6 : 0.55) * unit(rng);
      grid.add_usage_at(i, std::floor(static_cast<float>(fill * grid.capacity_at(i))));
    }
    for (std::size_t i = 0; i < grid.num_f2f_cells(); ++i)
      grid.add_f2f_at(i, std::floor(static_cast<float>(0.8 * unit(rng) * grid.f2f_capacity())));
    std::vector<float> history(grid.num_track_cells());
    for (float& v : history) v = static_cast<float>(3.0 * unit(rng));

    const CandidateTable candidates(tech3d);
    int native = 0, cross = 0, shared = 0, fallback = 0;
    for (int k = 0; k < 400; ++k) {
      const bool left = k % 2 == 0;
      auto point = [&](std::uint8_t tier) {
        const double x = (left ? 0.0 : 0.5 * w) + unit(rng) * 0.49 * w;
        return Terminal{static_cast<float>(x), static_cast<float>(unit(rng) * h), tier, 1.0f};
      };
      const auto tier_a = static_cast<std::uint8_t>(unit(rng) < 0.5 ? 0 : 1);
      const auto tier_b = unit(rng) < 0.3 ? static_cast<std::uint8_t>(1 - tier_a) : tier_a;
      const Terminal a = point(tier_a), b = point(tier_b);
      const bool mls = unit(rng) < 0.5;
      const float* hist = k % 4 == 3 ? nullptr : history.data();
      const EdgeRoute got = route_edge(EdgeCostModel{grid, candidates, hist}, a, b, mls);
      const EdgeRoute want = lone_walk_route_edge(grid, tech3d, hist, a, b, mls);
      ASSERT_EQ(got, want) << layers << " layers, edge " << k;
      ASSERT_TRUE(got.routed);
      if (got.fallback) ++fallback;
      else if (got.shared) ++shared;
      else if (tier_a != tier_b) ++cross;
      else ++native;
    }
    EXPECT_GE(native, 40) << layers;
    EXPECT_GE(cross, 40) << layers;
    EXPECT_GE(shared, 20) << layers;
    EXPECT_GE(fallback, 20) << layers;
  }

  // Exact ties keep the first candidate in enumeration order: with the same
  // R and C on every layer, free vias and an empty grid, every candidate of a
  // list costs the same.
  tech::Tech3D flat = tech::make_hetero_tech(6);
  for (tech::BeolStack* st : {&flat.beol_bottom, &flat.beol_top}) {
    st->via_r_ohm = 0.0;
    st->via_c_ff = 0.0;
    for (tech::MetalLayer& layer : st->layers) {
      layer.r_ohm_per_um = 1.0;
      layer.c_ff_per_um = 0.2;
    }
  }
  const RoutingGrid empty(w, h, flat);
  const CandidateTable flat_candidates(flat);
  const EdgeCostModel flat_model{empty, flat_candidates, nullptr};
  const Terminal p{10.0f, 10.0f, 0, 0.0f}, q{90.0f, 60.0f, 0, 1.0f}, r{90.0f, 60.0f, 1, 1.0f};
  const EdgeRoute native = route_edge(flat_model, p, q, false);
  EXPECT_EQ(native.route_tier, 0);
  EXPECT_EQ(native.layer_lo, 1);
  const EdgeRoute cross = route_edge(flat_model, p, r, false);
  EXPECT_EQ(cross.route_tier, 0);
  EXPECT_EQ(cross.layer_lo, 1);
  const EdgeRoute mls = route_edge(flat_model, p, q, true);
  EXPECT_TRUE(mls.shared);
  EXPECT_EQ(mls.route_tier, 1);
  EXPECT_EQ(mls.layer_lo, 4);  // the top pair is the first shared candidate
  for (const auto& [er, b, flag] : {std::tuple{native, q, false}, std::tuple{cross, r, false},
                                    std::tuple{mls, q, true}})
    EXPECT_EQ(er, lone_walk_route_edge(empty, flat, nullptr, p, b, flag));
}

// The router keeps no record of what it committed besides the per-edge
// results: the grid's usage must equal, exactly, the sum of the footprints
// of the edges in net_edges(). Every path that adds or removes usage keeps
// it so: negotiation rip-up and revert, checkpoint/restore and the ECO
// rip-up of reroute_nets.
void expect_usage_is_footprint_sum(const Router& router, const Design& d,
                                   const tech::Tech3D& tech3d) {
  RoutingGrid fresh(d.info.die_w_um, d.info.die_h_um, tech3d);
  for (Id n = 0; n < router.routes().size(); ++n)
    for (const EdgeRoute& er : router.net_edges(n)) commit_edge(fresh, er, 1.0f);
  expect_same_usage(fresh, router.grid());
}

// restore() rebuilds grid usage from the restored edges. The DesignDB state
// fingerprint hashes neither usage nor history, so this test is what sees a
// bad rebuild: after a fault kills route_all mid-decompose (usage cleared,
// history zeroed), restoring the checkpoint must give back every usage cell,
// the history surface and the edge routes of the negotiated route.
TEST(RouterFootprint, GridUsageIsTheSumOfEdgeFootprints) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  obs::Counter& reverts = obs::Metrics::instance().counter("route.negotiation_reverts");
  Router router(d, tech3d);

  const std::vector<std::uint8_t> flags = long_2d_net_flags(d);
  const std::uint64_t before = reverts.value();
  const RouteSummary s = router.route_all(flags);
  EXPECT_GT(s.negotiation_iters, 0u);
  EXPECT_GT(reverts.value() - before, 0u);
  EXPECT_GT(s.f2f_pairs, 0u);
  expect_usage_is_footprint_sum(router, d, tech3d);

  const RoutingGrid grid_before = router.grid();
  const std::uint64_t hash_before = edge_route_hash(router);
  const Router::Checkpoint cp = router.checkpoint();
  router.route_all({});
  expect_usage_is_footprint_sum(router, d, tech3d);
  router.restore(cp);
  expect_same_usage(grid_before, router.grid());
  expect_usage_is_footprint_sum(router, d, tech3d);

  ft::FaultPlan& plan = ft::FaultPlan::instance();
  plan.reset();
  plan.arm("route.net", d.nl.num_nets() / 2);
  EXPECT_THROW(router.route_all(flags), ft::FlowError);
  plan.reset();
  router.restore(cp);
  expect_same_usage(grid_before, router.grid());
  EXPECT_TRUE(router.checkpoint().history == cp.history);
  EXPECT_EQ(edge_route_hash(router), hash_before);

  router.reroute_nets(splice_buffer_pair(d.nl), flags);
  ASSERT_EQ(router.routes().size(), d.nl.num_nets());
  expect_usage_is_footprint_sum(router, d, tech3d);
}

// net_topology() derives the tree from the netlist on demand; check rule
// RT-002 reads it as the tree the router routed. After a negotiated route and
// after an ECO repair, every net's derived tree has one edge per routed edge,
// and each routed edge spans the gcells of its parent and child terminals.
TEST(RouterTopology, DerivedTreeIsTheRoutedTree) {
  tech::Tech3D tech3d;
  Design d = placed_16pe(true, tech3d);
  Router router(d, tech3d);
  const std::vector<std::uint8_t> flags = long_2d_net_flags(d);
  const RoutingGrid& grid = router.grid();
  const auto expect_derived_tree_routed = [&] {
    std::size_t routed = 0;
    for (Id n = 0; n < d.nl.num_nets(); ++n) {
      const NetTopology topo = router.net_topology(n);
      const std::vector<EdgeRoute>& edges = router.net_edges(n);
      ASSERT_EQ(topo.num_edges(), edges.size()) << "net " << n;
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const EdgeRoute& er = edges[e];
        if (!er.routed) continue;
        ++routed;
        const Terminal& a = topo.terms[static_cast<std::size_t>(topo.parent[e + 1])];
        const Terminal& b = topo.terms[e + 1];
        EXPECT_EQ(er.gx1, grid.gx(a.x)) << "net " << n << " edge " << e;
        EXPECT_EQ(er.gy1, grid.gy(a.y)) << "net " << n << " edge " << e;
        EXPECT_EQ(er.gx2, grid.gx(b.x)) << "net " << n << " edge " << e;
        EXPECT_EQ(er.gy2, grid.gy(b.y)) << "net " << n << " edge " << e;
      }
    }
    EXPECT_GT(routed, 1000u);
  };

  router.route_all(flags);
  expect_derived_tree_routed();
  router.reroute_nets(splice_buffer_pair(d.nl), flags);
  ASSERT_EQ(router.routes().size(), d.nl.num_nets());
  expect_derived_tree_routed();
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
