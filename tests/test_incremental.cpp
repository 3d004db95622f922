// Property tests for the incremental machinery: a flag-flip re-route on a
// live router must be indistinguishable from a from-scratch route_all and
// report its exact diff, TimingGraph::update fed that diff must reproduce a
// full run() to within 1e-9 on WNS, TNS, and every per-pin slack, and
// Router::reroute_nets must repair netlist ECOs. Randomized flag flips drive
// the first two.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

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

// The exact diff contract: `rs` lists precisely the nets whose routed value
// (or any edge) moved from `before`, and precisely the edges that moved.
void expect_exact_diff(const Router& live, const std::vector<route::NetRoute>& before,
                       const std::vector<std::vector<route::EdgeRoute>>& before_edges,
                       const RouteSummary& rs) {
  const std::size_t n = before.size();
  std::vector<bool> listed(n, false);
  for (const Id i : rs.changed_nets) listed[i] = true;
  std::size_t moved_edges = 0;
  for (Id i = 0; i < n; ++i) {
    const route::NetRoute& a = before[i];
    const route::NetRoute& b = live.net_route(i);
    const bool moved =
        !(a.wl_um == b.wl_um && a.res_ohm == b.res_ohm && a.cap_ff == b.cap_ff &&
          a.load_ff == b.load_ff && a.detour == b.detour &&
          a.layers_used[0] == b.layers_used[0] && a.layers_used[1] == b.layers_used[1] &&
          a.f2f_vias == b.f2f_vias && a.mls_applied == b.mls_applied &&
          a.worst_overflow == b.worst_overflow && a.sink_elmore_ps == b.sink_elmore_ps &&
          before_edges[i] == live.net_edges(i));
    EXPECT_EQ(listed[i], moved) << "net " << i;
    const auto& now = live.net_edges(i);
    for (std::size_t e = 0; e < std::max(now.size(), before_edges[i].size()); ++e)
      if (e >= now.size() || e >= before_edges[i].size() || !(now[e] == before_edges[i][e]))
        ++moved_edges;
  }
  EXPECT_EQ(rs.changed_edges.size(), moved_edges);
  for (const route::EdgeRef& e : rs.changed_edges) {
    EXPECT_TRUE(listed[e.net]) << "edge of unlisted net " << e.net;
    ASSERT_LT(e.edge, before_edges[e.net].size());
    EXPECT_FALSE(live.net_edges(e.net)[e.edge] == before_edges[e.net][e.edge]);
  }
}

// A flag flip re-routes the live router with route_all: the result must be
// bit-exact with a fresh router's, and the summary must carry the exact
// diff against the routing it replaced.
TEST(RerouteReplay, BitExactWithFromScratchRouteAll) {
  tech::Tech3D tech3d;
  const netlist::Design d = placed_16pe(tech3d);
  const route::RouterOptions opt;
  Router live(d, tech3d, opt);
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  const RouteSummary first = live.route_all(flags);
  EXPECT_TRUE(first.changed_nets.empty());  // a first route is no delta
  EXPECT_TRUE(first.changed_edges.empty());

  util::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::uint8_t> new_flags = flags;
    flip_random(rng, new_flags, 1 + 7 * trial);
    const std::vector<route::NetRoute> before = live.routes();
    std::vector<std::vector<route::EdgeRoute>> before_edges;
    for (Id n = 0; n < d.nl.num_nets(); ++n) before_edges.push_back(live.net_edges(n));
    const RouteSummary inc = live.route_all(new_flags);
    expect_exact_diff(live, before, before_edges, inc);

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
// routing, so the diff is empty.
TEST(RerouteReplay, EmptyDirtySetIsANoOp) {
  tech::Tech3D tech3d;
  const netlist::Design d = placed_16pe(tech3d);
  Router live(d, tech3d);
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  const RouteSummary base = live.route_all(flags);
  const RouteSummary re = live.route_all(flags);
  EXPECT_DOUBLE_EQ(re.total_wl_m, base.total_wl_m);
  EXPECT_TRUE(re.changed_nets.empty());
  EXPECT_TRUE(re.changed_edges.empty());
}

TEST(StaIncremental, MatchesFullRunOnRandomDirtySets) {
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
    const RouteSummary inc = live.route_all(new_flags);
    const sta::StaResult r_inc = g.update(inc.changed_nets);

    Router fresh(d, tech3d, opt);
    fresh.route_all(new_flags);
    sta::TimingGraph g2(d, tech3d, fresh.routes());
    const sta::StaResult r_full = g2.run(d.info.clock_ps, 40.0);

    EXPECT_NEAR(r_inc.wns_ps, r_full.wns_ps, 1e-9) << "trial " << trial;
    EXPECT_NEAR(r_inc.tns_ns, r_full.tns_ns, 1e-9) << "trial " << trial;
    EXPECT_EQ(r_inc.violating_endpoints, r_full.violating_endpoints) << "trial " << trial;
    EXPECT_EQ(r_inc.endpoints, r_full.endpoints);
    for (Id p = 0; p < d.nl.num_pins(); ++p) {
      ASSERT_NEAR(g.arrival_ps(p), g2.arrival_ps(p), 1e-9) << "pin " << p;
      ASSERT_NEAR(g.slack_ps(p), g2.slack_ps(p), 1e-9) << "pin " << p;
    }
    flags = new_flags;
  }
}

TEST(StaIncremental, UpdateThenFullRunIsAFixedPoint) {
  tech::Tech3D tech3d;
  const netlist::Design d = placed_16pe(tech3d);
  Router live(d, tech3d);
  std::vector<std::uint8_t> flags(d.nl.num_nets(), 0);
  live.route_all(flags);
  sta::TimingGraph g(d, tech3d, live.routes());
  g.run(d.info.clock_ps, 40.0);

  util::Rng rng(13);
  std::vector<std::uint8_t> new_flags = flags;
  flip_random(rng, new_flags, 16);
  const RouteSummary inc = live.route_all(new_flags);
  const sta::StaResult r_inc = g.update(inc.changed_nets);
  const sta::StaResult r_again = g.run(d.info.clock_ps, 40.0);
  EXPECT_DOUBLE_EQ(r_inc.wns_ps, r_again.wns_ps);
  EXPECT_DOUBLE_EQ(r_inc.tns_ns, r_again.tns_ns);
  EXPECT_EQ(r_inc.violating_endpoints, r_again.violating_endpoints);
}

TEST(StaIncremental, ThrowsBeforeRunAndOnStaleTopology) {
  tech::Tech3D tech3d;
  netlist::Design d = placed_16pe(tech3d);
  Router live(d, tech3d);
  live.route_all({});
  sta::TimingGraph g(d, tech3d, live.routes());
  const std::vector<Id> dirty{0};
  EXPECT_THROW(g.update(dirty), std::logic_error);  // update before run

  g.run(d.info.clock_ps, 40.0);
  d.nl.add_cell(tech::CellKind::kBuf, 0, 50.0f, 50.0f);  // pin space grew
  EXPECT_THROW(g.update(dirty), std::logic_error);
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
  const RouteSummary rs = live.reroute_nets(dirty);

  ASSERT_EQ(live.routes().size(), nl.num_nets());
  EXPECT_EQ(live.routed_revision(), nl.revision());
  const route::NetRoute& r = live.net_route(fresh_net);
  EXPECT_GT(r.wl_um, 0.0f);
  ASSERT_EQ(r.sink_elmore_ps.size(), 1u);
  EXPECT_GT(r.sink_elmore_ps[0], 0.0f);
  // Both the tapped net and the new one report as changed.
  EXPECT_NE(std::find(rs.changed_nets.begin(), rs.changed_nets.end(), fresh_net),
            rs.changed_nets.end());
  EXPECT_NE(std::find(rs.changed_nets.begin(), rs.changed_nets.end(), tapped),
            rs.changed_nets.end());
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
