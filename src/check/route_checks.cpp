// Routing checks (RT-001..005) and the MLS decision/feature checks
// (MLS-001..002 live in mls_checks.cpp).
#include <cmath>

#include "check/checks.hpp"

namespace gnnmls::check {

namespace {
using netlist::Id;
using netlist::kNullId;

std::string gcell_name(int tier, int layer, int x, int y) {
  return "gcell (" + std::to_string(x) + "," + std::to_string(y) + ") M" +
         std::to_string(layer + 1) + (tier == 0 ? " bot" : " top");
}
}  // namespace

void check_grid_capacity(const route::RoutingGrid& grid, Report& report) {
  const RuleInfo& overflow = *find_rule("RT-001");
  for (int tier = 0; tier < 2; ++tier)
    for (int layer = 0; layer < grid.num_layers(tier); ++layer)
      for (int y = 0; y < grid.ny(); ++y)
        for (int x = 0; x < grid.nx(); ++x) {
          const float cap = grid.capacity(tier, layer, x, y);
          const float use = grid.usage(tier, layer, x, y);
          if (use > cap)
            report.add(overflow, gcell_name(tier, layer, x, y),
                       "track usage " + fmt_num(use) + " exceeds capacity " + fmt_num(cap));
        }
}

void check_f2f_capacity(const route::RoutingGrid& grid, Report& report) {
  const RuleInfo& overflow = *find_rule("RT-003");
  for (int y = 0; y < grid.ny(); ++y)
    for (int x = 0; x < grid.nx(); ++x) {
      const float use = grid.f2f_usage(x, y);
      if (use > grid.f2f_capacity())
        report.add(overflow,
                   "gcell (" + std::to_string(x) + "," + std::to_string(y) + ")",
                   "F2F pad usage " + fmt_num(use) + " exceeds the pad-pitch cap " +
                       fmt_num(grid.f2f_capacity()));
    }
}

void check_routes(const netlist::Design& design, const route::Router& router, Report& report) {
  const RuleInfo& shared_rule = *find_rule("RT-002");
  const RuleInfo& stale = *find_rule("RT-005");
  const netlist::Netlist& nl = design.nl;
  const std::vector<route::NetRoute>& routes = router.routes();

  // Primary staleness signal: the router stamps the netlist revision it last
  // routed against, so any journaled mutation since then fires exactly —
  // including ones the old size heuristic missed (e.g. a re-driven net keeps
  // its sink count but invalidates the committed geometry).
  if (router.routed_revision() != 0 && router.routed_revision() != nl.revision()) {
    report.add(stale, "design " + design.info.name,
               "routes committed at netlist revision " +
                   std::to_string(router.routed_revision()) + " but the netlist is at " +
                   std::to_string(nl.revision()) + " (ECO without re-route)");
    if (routes.size() != nl.num_nets()) return;  // indices below would be meaningless
  } else if (routes.size() != nl.num_nets()) {
    // Fallback for routers driven outside the revisioned flow.
    report.add(stale, "design " + design.info.name,
               std::to_string(routes.size()) + " routes for " + std::to_string(nl.num_nets()) +
                   " nets (netlist changed since route_all)");
    return;  // indices below would be meaningless
  }

  const int shared_layers = router.options().shared_layers;
  for (Id n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    const route::NetRoute& r = routes[n];
    if (net.driver != kNullId && !net.sinks.empty() &&
        r.sink_elmore_ps.size() != net.sinks.size()) {
      report.add(stale, "net " + nl.net_name(n),
                 std::to_string(r.sink_elmore_ps.size()) + " sink delays for " +
                     std::to_string(net.sinks.size()) + " sinks (ECO without re-route)");
      continue;
    }
    if (!r.mls_applied) continue;

    // Shared routing is restricted to the top pairs of the tier opposite the
    // edge's own terminals (pair lows top-1..top-shared_layers). Judged per
    // shared edge, not by the net's layer masks: a multi-tier net's native
    // and cross-tier edges may use any metal of either tier, and its shared
    // edges may sit on the driver's own tier.
    const route::NetTopology& topo = router.net_topology(n);
    const std::vector<route::EdgeRoute>& edges = router.net_edges(n);
    bool any_shared = false;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const route::EdgeRoute& er = edges[e];
      if (!er.shared) continue;
      any_shared = true;
      const int edge_home = topo.terms[static_cast<std::size_t>(topo.parent[e + 1])].tier;
      const int top = router.grid().num_layers(er.route_tier) - 1;
      const int lowest_legal = std::max(0, top - shared_layers);
      if (er.route_tier != edge_home && er.layer_lo >= lowest_legal && er.layer_lo < top) continue;
      report.add(shared_rule, "net " + nl.net_name(n),
                 "shared edge " + std::to_string(e) + " uses M" +
                     std::to_string(er.layer_lo + 1) + "-" + std::to_string(er.layer_lo + 2) +
                     (er.route_tier == 0 ? "(bot)" : "(top)") + ", not a legal shared pair (M" +
                     std::to_string(lowest_legal + 1) + "+ on the tier opposite its terminals)");
      break;  // one finding per net
    }
    if (!any_shared)
      report.add(shared_rule, "net " + nl.net_name(n),
                 "marked mls_applied but routes no edge on shared metal");
    if (r.f2f_vias < 2)
      report.add(shared_rule, "net " + nl.net_name(n),
                 "shared route reports " + std::to_string(r.f2f_vias) +
                     " F2F via(s); a round trip needs at least 2");
  }
}

}  // namespace gnnmls::check
