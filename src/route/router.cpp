#include "route/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "ft/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "route/negotiate.hpp"
#include "util/log.hpp"

namespace gnnmls::route {

namespace {

// Counter handles are resolved once (registry lookup takes a lock) and the
// hot loops batch into locals, so the per-net cost is a handful of relaxed
// atomic adds.
struct RouteCounters {
  obs::Counter& edge_candidates = obs::Metrics::instance().counter("route.edge_candidates");
  obs::Counter& edges_routed = obs::Metrics::instance().counter("route.edges_routed");
  obs::Counter& mls_fallbacks = obs::Metrics::instance().counter("route.mls_fallbacks");
  obs::Counter& f2f_committed = obs::Metrics::instance().counter("route.f2f_vias_committed");
  obs::Counter& nets_routed = obs::Metrics::instance().counter("route.nets_routed");
  obs::Counter& rip_ups = obs::Metrics::instance().counter("route.rip_ups");
  obs::Counter& eco_reroutes = obs::Metrics::instance().counter("route.eco_reroutes");
  obs::Counter& trial_routes = obs::Metrics::instance().counter("route.trial_routes");
  static RouteCounters& get() {
    static RouteCounters c;
    return c;
  }
};

using netlist::Id;
using netlist::kNullId;

// Tallies the per-edge observability counts of one net's routed edges.
struct EdgeTally {
  std::uint64_t candidates = 0, routed = 0, fallbacks = 0, f2f = 0;
  void add(const EdgeRoute& er) {
    candidates += er.candidates;
    if (er.routed) ++routed;
    if (er.fallback) ++fallbacks;
    f2f += er.f2f;
  }
  void flush(bool committed) const {
    RouteCounters& rc = RouteCounters::get();
    rc.edge_candidates.add(candidates);
    rc.edges_routed.add(routed);
    if (fallbacks) rc.mls_fallbacks.add(fallbacks);
    if (committed && f2f) rc.f2f_committed.add(f2f);
  }
};

}  // namespace

Router::Router(const netlist::Design& design, const tech::Tech3D& tech)
    : design_(design),
      tech_(tech),
      grid_(design.info.die_w_um, design.info.die_h_um, tech),
      candidates_(tech) {
  // PDN straps and clock trunks consume top-pair tracks before any signal
  // is routed; the leftover is what 2D nets and MLS nets fight over.
  for (int tier = 0; tier < 2; ++tier) {
    const int top = grid_.num_layers(tier) - 1;
    grid_.reserve_layer_fraction(tier, top, std::min(0.95, kPdnTopFraction + kCtsTopFraction));
    grid_.reserve_layer_fraction(tier, top - 1, kCtsSecondFraction);
  }
}

NetRoute Router::route_net(Id net, bool mls) {
  const NetTopology topo = build_net_topology(design_, tech_, net);
  const std::size_t ne = topo.num_edges();
  std::vector<EdgeRoute> edges(ne);
  const EdgeCostModel model{grid_, candidates_, history_or_null()};
  EdgeTally tally;
  for (std::size_t e = 0; e < ne; ++e) {
    const Terminal& a = topo.terms[static_cast<std::size_t>(topo.parent[e + 1])];
    const Terminal& b = topo.terms[e + 1];
    edges[e] = route_edge(model, a, b, mls);
    tally.add(edges[e]);
    // Immediate commit: the next edge of this net (and every later net)
    // sees this edge's congestion.
    commit_edge(grid_, edges[e], 1.0f);
  }
  NetRoute out = assemble_net_route(design_.nl, net, topo.terms, topo.parent, edges);
  tally.flush(/*committed=*/true);
  edge_routes_[net] = std::move(edges);
  return out;
}

void Router::sort_route_order(std::vector<Id>& nets,
                              const std::vector<std::uint8_t>& mls_flags) const {
  // Order: MLS nets first (targeted routing reserves their shared tracks),
  // longest first; then the rest, shortest first (locality preservation).
  // The net-id tie-break makes the order a total function of (flags, hpwl),
  // which is what makes routing deterministic.
  const netlist::Netlist& nl = design_.nl;
  std::vector<float> hpwl(nl.num_nets());
  for (Id i = 0; i < nl.num_nets(); ++i) hpwl[i] = static_cast<float>(nl.net_hpwl_um(i));
  std::sort(nets.begin(), nets.end(), [&](Id x, Id y) {
    const bool fx = flag_of(mls_flags, x), fy = flag_of(mls_flags, y);
    if (fx != fy) return fx;                     // MLS nets first
    if (hpwl[x] != hpwl[y]) return fx ? hpwl[x] > hpwl[y] : hpwl[x] < hpwl[y];
    return x < y;
  });
}

RouteSummary Router::summarize() const {
  RouteSummary summary;
  for (const NetRoute& r : routes_) {
    summary.total_wl_m += r.wl_um * 1e-6;
    if (r.mls_applied) ++summary.mls_nets;
    summary.f2f_pairs += r.f2f_vias;
  }
  summary.census = grid_.census();
  return summary;
}

void Router::rip_up(Id net) {
  for (const EdgeRoute& er : edge_routes_[net]) commit_edge(grid_, er, -1.0f);
  edge_routes_[net].clear();
  routes_[net] = NetRoute{};
}

void Router::finish_route_all(RouteSummary& summary) {
  routed_revision_ = design_.nl.revision();
  RouteCounters::get().nets_routed.add(design_.nl.num_nets());
  obs::Metrics::instance().gauge("route.overflow_gcells")
      .set(static_cast<double>(summary.census.overflow_gcells));
  obs::Metrics::instance().gauge("route.f2f_overflow_gcells")
      .set(static_cast<double>(summary.census.f2f_overflow_gcells));
  obs::Metrics::instance().gauge("route.wl_m").set(summary.total_wl_m);
  util::log_debug("router: WL ", summary.total_wl_m, " m, MLS nets ", summary.mls_nets,
                  ", overflow gcells ", summary.census.overflow_gcells);
}

RouteSummary Router::route_all(const std::vector<std::uint8_t>& mls_flags) {
  GNNMLS_SPAN("route.route_all");
  const netlist::Netlist& nl = design_.nl;
  const std::size_t n = nl.num_nets();
  grid_.clear_usage();
  routes_.assign(n, NetRoute{});
  edge_routes_.assign(n, {});
  history_.assign(grid_.num_track_cells(), 0.0f);

  // ---- phase 0: decompose every net into 2-pin edges ----------------------
  // The edge list is emitted in route order, so "earlier in the list" means
  // "higher routing priority": MLS edges route and commit before the native
  // ones.
  // The trees live only until assembly (net_topology() re-derives one on
  // demand), flat-packed in route order: a net's terminals and parents start
  // at tree_at[net]. Two arrays instead of two vectors per net leave no
  // trail of small freed blocks behind for the rest of the flow to allocate
  // from.
  std::vector<EdgeTask> tasks;
  std::vector<Terminal> terms;
  std::vector<int> parents;
  std::vector<std::size_t> tree_at(n, 0);
  terms.reserve(nl.num_pins());
  parents.reserve(nl.num_pins());
  {
    GNNMLS_SPAN("route.decompose");
    std::vector<Id> order(n);
    std::iota(order.begin(), order.end(), 0u);
    sort_route_order(order, mls_flags);
    for (Id net : order) {
      GNNMLS_FAULT_POINT("route.net");
      const NetTopology t = build_net_topology(design_, tech_, net);
      tree_at[net] = terms.size();
      terms.insert(terms.end(), t.terms.begin(), t.terms.end());
      parents.insert(parents.end(), t.parent.begin(), t.parent.end());
      const std::size_t ne = t.num_edges();
      const bool mls = flag_of(mls_flags, net);
      for (std::uint32_t e = 0; e < ne; ++e) {
        tasks.push_back(EdgeTask{net, e, t.terms[static_cast<std::size_t>(t.parent[e + 1])],
                                 t.terms[e + 1], mls});
      }
    }
  }

  // ---- phases 1+2: serial routing + negotiation ---------------------------
  // Negotiation works on one route array in task order; a net's edges are
  // consecutive tasks in edge order, so each run scatters into its net.
  std::vector<EdgeRoute> routed(tasks.size());
  const NegotiationStats stats =
      route_negotiated(NegotiationInput{grid_, candidates_, tasks, history_, routed});
  for (std::size_t i = 0, j = 0; i < tasks.size(); i = j) {
    while (j < tasks.size() && tasks[j].net == tasks[i].net) ++j;
    edge_routes_[tasks[i].net].assign(routed.begin() + static_cast<std::ptrdiff_t>(i),
                                      routed.begin() + static_cast<std::ptrdiff_t>(j));
  }

  // ---- assemble per-net electrical models ---------------------------------
  EdgeTally tally;
  for (Id net = 0; net < n; ++net) {
    // A tree with edges has one terminal more than edges; an edgeless net's
    // tree is empty.
    const std::size_t ne = edge_routes_[net].size();
    const std::size_t nt = ne == 0 ? 0 : ne + 1;
    routes_[net] =
        assemble_net_route(nl, net, std::span(terms).subspan(tree_at[net], nt),
                           std::span(parents).subspan(tree_at[net], nt), edge_routes_[net]);
    for (const EdgeRoute& er : edge_routes_[net]) tally.add(er);
  }
  tally.flush(/*committed=*/true);

  RouteSummary summary = summarize();
  summary.negotiation_iters = stats.iterations;
  summary.negotiation_ripups = stats.ripups;
  summary.initial_overflow = stats.initial_overflow;
  finish_route_all(summary);
  return summary;
}

RouteSummary Router::reroute_nets(std::span<const netlist::Id> dirty,
                                  const std::vector<std::uint8_t>& mls_flags) {
  GNNMLS_SPAN("route.reroute_nets");
  const netlist::Netlist& nl = design_.nl;
  const std::size_t n = nl.num_nets();
  const std::size_t old_n = routes_.size();
  routes_.resize(n);
  edge_routes_.resize(n);

  // Dirty set: the caller's nets plus everything added since the last route.
  std::vector<std::uint8_t> is_dirty(n, 0);
  for (const Id d : dirty)
    if (d < n) is_dirty[d] = 1;
  for (std::size_t i = old_n; i < n; ++i) is_dirty[i] = 1;

  std::vector<Id> affected;
  for (Id i = 0; i < n; ++i)
    if (is_dirty[i]) affected.push_back(i);
  if (affected.empty()) {
    routed_revision_ = nl.revision();
    return summarize();
  }
  // Deterministic repair order = the route order restricted to the dirty set.
  sort_route_order(affected, mls_flags);

  {
    RouteCounters& rc = RouteCounters::get();
    rc.rip_ups.add(affected.size());
    rc.eco_reroutes.add(1);
  }
  for (const Id i : affected) rip_up(i);
  for (const Id i : affected) {
    GNNMLS_FAULT_POINT("route.net");
    routes_[i] = route_net(i, flag_of(mls_flags, i));
  }
  routed_revision_ = nl.revision();

  const RouteSummary summary = summarize();
  util::log_debug("router: rerouted ", affected.size(), " nets, WL ", summary.total_wl_m, " m");
  return summary;
}

Router::Checkpoint Router::checkpoint() const {
  Checkpoint cp;
  cp.routes = routes_;
  std::size_t n_edges = 0;
  for (const std::vector<EdgeRoute>& edges : edge_routes_) n_edges += edges.size();
  cp.edge_count.reserve(edge_routes_.size());
  cp.edge_routes.reserve(n_edges);
  for (const std::vector<EdgeRoute>& edges : edge_routes_) {
    cp.edge_count.push_back(static_cast<std::uint32_t>(edges.size()));
    cp.edge_routes.insert(cp.edge_routes.end(), edges.begin(), edges.end());
  }
  cp.history = history_;
  cp.routed_revision = routed_revision_;
  return cp;
}

void Router::restore(const Checkpoint& cp) {
  routes_ = cp.routes;
  edge_routes_.assign(cp.routes.size(), {});
  grid_.clear_usage();
  auto at = cp.edge_routes.begin();
  for (std::size_t i = 0; i < edge_routes_.size(); ++i) {
    const auto end = at + static_cast<std::ptrdiff_t>(cp.edge_count[i]);
    edge_routes_[i].assign(at, end);
    for (; at != end; ++at) commit_edge(grid_, *at, 1.0f);
  }
  history_ = cp.history;
  routed_revision_ = cp.routed_revision;
}

NetRoute Router::trial_route(Id net, bool mls) const {
  RouteCounters::get().trial_routes.add(1);
  const NetTopology topo = build_net_topology(design_, tech_, net);
  const EdgeCostModel model{grid_, candidates_, history_or_null()};
  std::vector<EdgeRoute> edges(topo.num_edges());
  EdgeTally tally;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const Terminal& a = topo.terms[static_cast<std::size_t>(topo.parent[e + 1])];
    const Terminal& b = topo.terms[e + 1];
    edges[e] = route_edge(model, a, b, mls);
    tally.add(edges[e]);
  }
  tally.flush(/*committed=*/false);
  return assemble_net_route(design_.nl, net, topo.terms, topo.parent, edges);
}

std::string Router::describe_layers(const NetRoute& r) {
  auto mask_to_string = [](std::uint8_t mask) -> std::string {
    if (mask == 0) return "";
    int lo = -1, hi = -1;
    for (int i = 0; i < 8; ++i)
      if (mask & (1u << i)) {
        if (lo < 0) lo = i;
        hi = i;
      }
    // Wires always connect down to M1 at the pins on their home tier; report
    // the contiguous span like the paper does ("M1-6").
    if (lo == hi) return "M" + std::to_string(lo + 1);
    return "M" + std::to_string(lo + 1) + "-" + std::to_string(hi + 1);
  };
  std::string bot = mask_to_string(r.layers_used[0]);
  std::string top = mask_to_string(r.layers_used[1]);
  std::string out;
  if (!bot.empty()) out += bot + "(bot)";
  if (!top.empty()) {
    if (!out.empty()) out += "+";
    out += top + "(top)";
  }
  return out.empty() ? "-" : out;
}

}  // namespace gnnmls::route
