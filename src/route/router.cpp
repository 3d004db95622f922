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

Router::Router(const netlist::Design& design, const tech::Tech3D& tech,
               const RouterOptions& options)
    : design_(design),
      tech_(tech),
      options_(options),
      grid_(design.info.die_w_um, design.info.die_h_um, tech, options.grid) {
  // PDN straps and clock trunks consume top-pair tracks before any signal
  // is routed; the leftover is what 2D nets and MLS nets fight over.
  for (int tier = 0; tier < 2; ++tier) {
    const int top = grid_.num_layers(tier) - 1;
    grid_.reserve_layer_fraction(
        tier, top,
        std::min(0.95, options_.pdn_top_fraction[tier] + options_.cts_top_fraction));
    grid_.reserve_layer_fraction(tier, top - 1, options_.cts_second_fraction);
  }
}

void Router::reset_state(const std::vector<std::uint8_t>& mls_flags) {
  const std::size_t n = design_.nl.num_nets();
  grid_.clear_usage();
  routes_.assign(n, NetRoute{});
  topo_.assign(n, NetTopology{});
  edge_routes_.assign(n, {});
  history_.clear();
  mls_flags_ = mls_flags;
}

NetRoute Router::route_net(Id net, bool mls) {
  NetTopology topo = build_net_topology(design_, tech_, net);
  const std::size_t ne = topo.num_edges();
  std::vector<EdgeRoute> edges(ne);
  const EdgeCostModel model{grid_, tech_, options_, history_or_null()};
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
  NetRoute out = assemble_net_route(design_.nl, net, topo, edges);
  tally.flush(/*committed=*/true);
  topo_[net] = std::move(topo);
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
  topo_[net] = NetTopology{};
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
  reset_state(mls_flags);
  history_.assign(grid_.num_track_cells(), 0.0f);

  // ---- phase 0: decompose every net into 2-pin edges ----------------------
  // The edge list is emitted in route order, so "earlier in the list" means
  // "higher routing priority" — within a shard bucket, MLS edges route and
  // commit before the native ones.
  std::vector<EdgeTask> tasks;
  {
    GNNMLS_SPAN("route.decompose");
    std::vector<Id> order(nl.num_nets());
    std::iota(order.begin(), order.end(), 0u);
    sort_route_order(order, mls_flags_);
    for (Id net : order) {
      GNNMLS_FAULT_POINT("route.net");
      NetTopology topo = build_net_topology(design_, tech_, net);
      const std::size_t ne = topo.num_edges();
      edge_routes_[net].assign(ne, EdgeRoute{});
      const bool mls = flag_of(mls_flags_, net);
      for (std::uint32_t e = 0; e < ne; ++e) {
        tasks.push_back(EdgeTask{net, e,
                                 topo.terms[static_cast<std::size_t>(topo.parent[e + 1])],
                                 topo.terms[e + 1], mls});
      }
      topo_[net] = std::move(topo);
    }
  }

  // ---- phases 1+2: sharded routing + negotiation --------------------------
  const NegotiationStats stats = route_negotiated(
      NegotiationInput{grid_, tech_, options_, tasks, history_, edge_routes_});

  // ---- assemble per-net electrical models ---------------------------------
  EdgeTally tally;
  for (Id net = 0; net < nl.num_nets(); ++net) {
    routes_[net] = assemble_net_route(nl, net, topo_[net], edge_routes_[net]);
    for (const EdgeRoute& er : edge_routes_[net]) tally.add(er);
  }
  tally.flush(/*committed=*/true);

  RouteSummary summary = summarize();
  summary.negotiation_iters = stats.iterations;
  summary.negotiation_ripups = stats.ripups;
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
  topo_.resize(n);
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
    mls_flags_ = mls_flags;
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
  mls_flags_ = mls_flags;
  for (const Id i : affected) {
    GNNMLS_FAULT_POINT("route.net");
    routes_[i] = route_net(i, flag_of(mls_flags_, i));
  }
  routed_revision_ = nl.revision();

  const RouteSummary summary = summarize();
  util::log_debug("router: rerouted ", affected.size(), " nets, WL ", summary.total_wl_m, " m");
  return summary;
}

RouteSummary Router::reroute_nets(std::span<const netlist::Id> dirty) {
  return reroute_nets(dirty, mls_flags_);
}

Router::Checkpoint Router::checkpoint() const {
  Checkpoint cp;
  cp.routes = routes_;
  const std::size_t n = routes_.size();
  std::size_t n_terms = 0, n_edges = 0;
  for (std::size_t i = 0; i < n; ++i) {
    n_terms += topo_[i].terms.size();
    n_edges += edge_routes_[i].size();
  }
  cp.term_count.reserve(n);
  cp.terms.reserve(n_terms);
  cp.parents.reserve(n_terms);
  cp.edge_count.reserve(n);
  cp.edge_routes.reserve(n_edges);
  for (std::size_t i = 0; i < n; ++i) {
    const NetTopology& t = topo_[i];
    cp.term_count.push_back(static_cast<std::uint32_t>(t.terms.size()));
    cp.terms.insert(cp.terms.end(), t.terms.begin(), t.terms.end());
    cp.parents.insert(cp.parents.end(), t.parent.begin(), t.parent.end());
    cp.edge_count.push_back(static_cast<std::uint32_t>(edge_routes_[i].size()));
    cp.edge_routes.insert(cp.edge_routes.end(), edge_routes_[i].begin(), edge_routes_[i].end());
  }
  cp.history = history_;
  cp.mls_flags = mls_flags_;
  cp.routed_revision = routed_revision_;
  cp.grid = grid_.usage_state();
  return cp;
}

void Router::restore(const Checkpoint& cp) {
  routes_ = cp.routes;
  const std::size_t n = cp.routes.size();
  topo_.assign(n, NetTopology{});
  edge_routes_.assign(n, {});
  std::size_t term_at = 0, edge_at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t nt = cp.term_count[i];
    topo_[i].terms.assign(cp.terms.begin() + static_cast<std::ptrdiff_t>(term_at),
                          cp.terms.begin() + static_cast<std::ptrdiff_t>(term_at + nt));
    topo_[i].parent.assign(cp.parents.begin() + static_cast<std::ptrdiff_t>(term_at),
                           cp.parents.begin() + static_cast<std::ptrdiff_t>(term_at + nt));
    term_at += nt;
    const std::size_t ne = cp.edge_count[i];
    edge_routes_[i].assign(cp.edge_routes.begin() + static_cast<std::ptrdiff_t>(edge_at),
                           cp.edge_routes.begin() + static_cast<std::ptrdiff_t>(edge_at + ne));
    edge_at += ne;
  }
  history_ = cp.history;
  mls_flags_ = cp.mls_flags;
  routed_revision_ = cp.routed_revision;
  grid_.restore_usage(cp.grid);
}

NetRoute Router::trial_route(Id net, bool mls) const {
  RouteCounters::get().trial_routes.add(1);
  const NetTopology topo = build_net_topology(design_, tech_, net);
  const EdgeCostModel model{grid_, tech_, options_, history_or_null()};
  std::vector<EdgeRoute> edges(topo.num_edges());
  EdgeTally tally;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const Terminal& a = topo.terms[static_cast<std::size_t>(topo.parent[e + 1])];
    const Terminal& b = topo.terms[e + 1];
    edges[e] = route_edge(model, a, b, mls);
    tally.add(edges[e]);
  }
  tally.flush(/*committed=*/false);
  return assemble_net_route(design_.nl, net, topo, edges);
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
