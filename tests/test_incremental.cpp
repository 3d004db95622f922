// Property tests for re-routing and re-timing a live design: a flag-flip
// re-route on a live router must be indistinguishable from a from-scratch
// route_all, a timing graph built before the flip must re-time the new
// routes with run() bit for bit like a graph built fresh on them, and
// Router::reroute_nets must repair netlist ECOs. Randomized flag flips drive
// the first two.
#include <gtest/gtest.h>

#include "mls/flow.hpp"
#include "netlist/buffering.hpp"
#include "netlist/generators.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"
#include "sta/graph.hpp"
#include "util/rng.hpp"

namespace {

using namespace gnnmls;
using netlist::Id;
using route::RouteSummary;
using route::Router;

netlist::Design placed_16pe(tech::Tech3D& tech3d) {
  netlist::Design d = netlist::make_maeri_16pe();
  tech3d = tech::make_hetero_tech(d.info.beol_layers);
  netlist::insert_buffer_trees(d.nl);
  place::place(d, tech3d);
  return d;
}

void expect_route_equal(const route::NetRoute& a, const route::NetRoute& b, Id net) {
  EXPECT_EQ(a.wl_um, b.wl_um) << "net " << net;
  EXPECT_EQ(a.res_ohm, b.res_ohm) << "net " << net;
  EXPECT_EQ(a.cap_ff, b.cap_ff) << "net " << net;
  EXPECT_EQ(a.load_ff, b.load_ff) << "net " << net;
  EXPECT_EQ(a.detour, b.detour) << "net " << net;
  EXPECT_EQ(a.layers_used[0], b.layers_used[0]) << "net " << net;
  EXPECT_EQ(a.layers_used[1], b.layers_used[1]) << "net " << net;
  EXPECT_EQ(a.f2f_vias, b.f2f_vias) << "net " << net;
  EXPECT_EQ(a.mls_applied, b.mls_applied) << "net " << net;
  EXPECT_EQ(a.worst_overflow, b.worst_overflow) << "net " << net;
  EXPECT_EQ(a.sink_elmore_ps, b.sink_elmore_ps) << "net " << net;
}

// Flips `count` random nets' MLS flags (a net may flip more than once).
void flip_random(util::Rng& rng, std::vector<std::uint8_t>& flags, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) flags[rng.below(flags.size())] ^= 1;
}

// A flag flip re-routes the live router with route_all: the result must be
// bit-exact with a fresh router's.
TEST(RerouteReplay, BitExactWithFromScratchRouteAll) {
  tech::Tech3D tech3d;
  const netlist::Design d = placed_16pe(tech3d);
  const route::RouterOptions opt;
  Router live(d, tech3d, opt);
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  live.route_all(flags);

  util::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint8_t> new_flags = flags;
    flip_random(rng, new_flags, 1 + 7 * trial);
    const RouteSummary inc = live.route_all(new_flags);

    Router fresh(d, tech3d, opt);
    const RouteSummary full = fresh.route_all(new_flags);

    EXPECT_DOUBLE_EQ(inc.total_wl_m, full.total_wl_m) << "trial " << trial;
    EXPECT_EQ(inc.mls_nets, full.mls_nets) << "trial " << trial;
    EXPECT_EQ(inc.f2f_pairs, full.f2f_pairs) << "trial " << trial;
    EXPECT_EQ(inc.census.overflow_gcells, full.census.overflow_gcells) << "trial " << trial;
    ASSERT_EQ(live.routes().size(), fresh.routes().size());
    for (Id n = 0; n < d.nl.num_nets(); ++n)
      expect_route_equal(live.net_route(n), fresh.net_route(n), n);
    EXPECT_EQ(live.routed_revision(), d.nl.revision());
    flags = new_flags;
  }
}

// Re-routing under unchanged flags on an unchanged netlist reproduces the
// routing value for value.
TEST(RerouteReplay, EmptyDirtySetIsANoOp) {
  tech::Tech3D tech3d;
  const netlist::Design d = placed_16pe(tech3d);
  Router live(d, tech3d);
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  const RouteSummary base = live.route_all(flags);
  const std::vector<route::NetRoute> before = live.routes();
  std::vector<std::vector<route::EdgeRoute>> before_edges;
  for (Id n = 0; n < d.nl.num_nets(); ++n) before_edges.push_back(live.net_edges(n));
  const RouteSummary re = live.route_all(flags);
  EXPECT_DOUBLE_EQ(re.total_wl_m, base.total_wl_m);
  for (Id n = 0; n < d.nl.num_nets(); ++n) {
    expect_route_equal(live.net_route(n), before[n], n);
    EXPECT_TRUE(live.net_edges(n) == before_edges[n]) << "net " << n;
  }
}

// StaPass re-times a flag flip with run() on the graph it built before the
// flip: the graph reads the router's routes in place, so after route_all
// replaced them a re-run must match a graph built fresh on a fresh router's
// routes bit for bit — every endpoint aggregate and every pin's arrival,
// slack and critical-path predecessor.
TEST(StaRerun, LiveGraphMatchesFreshGraphAfterFlagFlips) {
  tech::Tech3D tech3d;
  const netlist::Design d = placed_16pe(tech3d);
  const route::RouterOptions opt;
  Router live(d, tech3d, opt);
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  live.route_all(flags);
  sta::TimingGraph g(d, tech3d, live.routes());
  g.run(d.info.clock_ps, 40.0);

  util::Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint8_t> new_flags = flags;
    flip_random(rng, new_flags, 2 + 9 * trial);
    live.route_all(new_flags);
    const sta::StaResult r_live = g.run(d.info.clock_ps, 40.0);

    Router fresh(d, tech3d, opt);
    fresh.route_all(new_flags);
    sta::TimingGraph g2(d, tech3d, fresh.routes());
    const sta::StaResult r_fresh = g2.run(d.info.clock_ps, 40.0);

    EXPECT_EQ(r_live.wns_ps, r_fresh.wns_ps) << "trial " << trial;
    EXPECT_EQ(r_live.tns_ns, r_fresh.tns_ns) << "trial " << trial;
    EXPECT_EQ(r_live.violating_endpoints, r_fresh.violating_endpoints) << "trial " << trial;
    EXPECT_EQ(r_live.endpoints, r_fresh.endpoints);
    for (Id p = 0; p < d.nl.num_pins(); ++p) {
      EXPECT_EQ(g.arrival_ps(p), g2.arrival_ps(p)) << "trial " << trial << " pin " << p;
      EXPECT_EQ(g.slack_ps(p), g2.slack_ps(p)) << "trial " << trial << " pin " << p;
      EXPECT_EQ(g.worst_prev(p), g2.worst_prev(p)) << "trial " << trial << " pin " << p;
    }
    flags = new_flags;
  }
}

TEST(RerouteEco, RoutesNetsAddedAfterTheLastRoute) {
  tech::Tech3D tech3d;
  netlist::Design d = placed_16pe(tech3d);
  Router live(d, tech3d);
  live.route_all({});
  const std::size_t old_nets = d.nl.num_nets();

  // Splice a buffer pair behind an existing driver: one touched old net, one
  // brand-new net that the router has never seen.
  netlist::Netlist& nl = d.nl;
  const std::size_t mark = nl.journal_size();
  Id tapped = netlist::kNullId;
  for (Id n = 0; n < nl.num_nets(); ++n)
    if (nl.net(n).driver != netlist::kNullId) { tapped = n; break; }
  ASSERT_NE(tapped, netlist::kNullId);
  const Id b1 = nl.add_cell(tech::CellKind::kBuf, 0, 80.0f, 90.0f);
  const Id b2 = nl.add_cell(tech::CellKind::kBuf, 0, 200.0f, 150.0f);
  nl.add_sink(tapped, nl.input_pin(b1, 0));
  const Id fresh_net = nl.connect(b1, 0, b2, 0);
  ASSERT_EQ(nl.num_nets(), old_nets + 1);

  // Only the explicitly journaled old net goes in the dirty list; the new
  // net must be picked up implicitly.
  std::vector<Id> dirty;
  for (const Id n : nl.journal().subspan(mark))
    if (n < old_nets) dirty.push_back(n);
  live.reroute_nets(dirty);

  ASSERT_EQ(live.routes().size(), nl.num_nets());
  EXPECT_EQ(live.routed_revision(), nl.revision());
  const route::NetRoute& r = live.net_route(fresh_net);
  EXPECT_GT(r.wl_um, 0.0f);
  ASSERT_EQ(r.sink_elmore_ps.size(), 1u);
  EXPECT_GT(r.sink_elmore_ps[0], 0.0f);
  // The tapped net was rerouted to its new sink.
  EXPECT_EQ(live.net_route(tapped).sink_elmore_ps.size(), nl.net(tapped).sinks.size());
}

TEST(DftEco, SingleRoutePlusEcoPassesStrictChecks) {
  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = false;
  cfg.strict_checks = true;  // the checker audits the post-ECO state
  mls::DesignFlow flow(netlist::make_maeri_16pe(), cfg);

  const mls::DesignFlow::DftMetrics m =
      flow.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kWireBased);
  EXPECT_GT(m.scan_flops, 0u);
  EXPECT_GT(m.total_faults, 0u);
  EXPECT_GT(m.coverage, 0.0);
  // The ECO left routes parallel to (and stamped at) the final netlist.
  EXPECT_EQ(flow.router().routes().size(), flow.design().nl.num_nets());
  EXPECT_EQ(flow.router().routed_revision(), flow.design().nl.revision());
  EXPECT_TRUE(flow.db().fresh(core::Stage::kRoutes));
  EXPECT_TRUE(flow.db().fresh(core::Stage::kTest));
}

}  // namespace
