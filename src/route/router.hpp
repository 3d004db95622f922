// Congestion- and MLS-aware global router.
//
// The router is a two-phase engine (the nthu-route Route_2pinnets
// structure; ROADMAP item 2 adds its RangeRouter):
//
//   1. decompose — every net becomes a driver-rooted spanning tree of 2-pin
//      edges (route/topology.hpp), the atomic routing unit;
//   2. route and negotiate — every edge, in the global route order, is
//      routed against the live grid and committed at once; then a
//      deterministic PathFinder-style loop rips up the edges crossing
//      congested ranges and reroutes them one by one with history-based
//      congestion costs until overflow converges or an iteration cap hits
//      (route/negotiate.hpp).
//
// Every grid commit happens in an order derived from the deterministic
// route order, so the result is a pure function of (netlist, flags).
// route_all() is the only full-route entry point; reroute_nets() is the
// minimal rip-up repair after a netlist ECO.
//
// The router has one fixed configuration: every cost weight, reservation
// and loop bound is a named constant next to the code that reads it (this
// header, route/grid.hpp, route/topology.cpp, route/negotiate.cpp).
//
// Layer-pair selection per edge is cost-driven: wire RC delay + via-stack
// resistance + congestion penalty (+ negotiated history), so short nets
// gravitate to thin lower metals and long nets to fat upper metals exactly
// as in a commercial flow's layer assignment.
//
// Metal Layer Sharing (paper Figure 1) is implemented as *targeted routing*:
// a net flagged for MLS has its long tree edges forced onto the top layer
// pair of the OTHER tier, entering and leaving through F2F bond pads (two
// extra vias of 0.5 Ohm / 0.2 fF plus the full via stack to the bond
// interface). In the heterogeneous stack this trades the 16nm die's thin
// metals for the 28nm die's fat ones — a large win for long nets and a loss
// for short ones, which is precisely the selectivity the GNN learns.
// Shared-layer tracks and F2F pads are finite, so indiscriminate MLS
// (the SOTA baseline) collapses into overflow detours.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/generators.hpp"
#include "route/grid.hpp"
#include "route/topology.hpp"
#include "tech/tech.hpp"

namespace gnnmls::route {

// Top-layer reservations applied before any signal is routed. PDN straps
// take kPdnTopFraction of each tier's top layer: a fixed constant, since the
// PDN synthesized after routing chooses its own utilization without feeding
// it back here (paper Table IV: M-T utilization 14% MAERI / 30% A7). Clock
// trunks and shielding take kCtsTopFraction more of the top layer and
// kCtsSecondFraction of the one below it (real stacks route CTS trunks there).
inline constexpr double kPdnTopFraction = 0.14;
inline constexpr double kCtsTopFraction = 0.30;
inline constexpr double kCtsSecondFraction = 0.22;

// Electrical + physical result for one routed net.
struct NetRoute {
  float wl_um = 0.0f;        // total routed wirelength (incl. detour)
  float res_ohm = 0.0f;      // total wire+via resistance
  float cap_ff = 0.0f;       // total wire+via+F2F capacitance (excl. pins)
  float load_ff = 0.0f;      // cap_ff + sum of sink pin caps (driver load)
  float detour = 1.0f;       // committed detour factor >= 1
  std::uint8_t layers_used[2] = {0, 0};  // bitmask, bit i = layer Mi+1
  std::uint8_t f2f_vias = 0;
  bool mls_applied = false;  // net actually used shared layers
  float worst_overflow = 0.0f;     // max usage/capacity along the route
  std::vector<float> sink_elmore_ps;  // parallel to Net::sinks
};

struct RouteSummary {
  double total_wl_m = 0.0;    // meters, as reported in Tables IV/V
  std::size_t mls_nets = 0;   // nets routed with shared layers
  std::size_t f2f_pairs = 0;  // F2F via count
  RoutingGrid::Census census;
  // Negotiation statistics of the producing route_all (0 for reroute_nets'
  // ECO repairs). initial_overflow is the track + F2F overflow cell count
  // before negotiation; the final count is census's.
  std::size_t negotiation_iters = 0;
  std::size_t negotiation_ripups = 0;
  std::size_t initial_overflow = 0;
};

class Router {
 public:
  Router(const netlist::Design& design, const tech::Tech3D& tech);

  // Routes every net with the negotiated engine. mls_flags is
  // per-net (empty = no MLS anywhere). Resets any previous routing state,
  // including the negotiation history. The result is a pure function of
  // (netlist, flags).
  RouteSummary route_all(const std::vector<std::uint8_t>& mls_flags);

  // Minimal rip-up repair after `dirty` nets changed (connectivity,
  // placement of their pins, or their MLS flag): only the dirty nets and any
  // nets added since the last route are ripped up and re-routed against the
  // surviving congestion state and history surface. Cost scales with the
  // dirty set, but the result can differ from a from-scratch route_all
  // because rerouted nets see congestion out of order — the ECO repair for
  // netlist-changing passes (DFT/scan insertion), where from-scratch
  // equivalence is undefined anyway. `mls_flags` are the decisions the
  // rerouted nets follow; the router keeps no copy (the DesignDB owns them).
  RouteSummary reroute_nets(std::span<const netlist::Id> dirty,
                            const std::vector<std::uint8_t>& mls_flags);

  // Netlist revision the current routes were built against (0 = never
  // routed). The RT-005 check compares this with design.nl.revision() to
  // detect an ECO that was not followed by a re-route.
  std::uint64_t routed_revision() const { return routed_revision_; }

  // What-if route of one net against the CURRENT congestion state (and
  // history surface), without committing resources. Used by the labeler's
  // per-net MLS trials. Truly const: the edge router is pure with respect
  // to the grid, so a trial can never leak usage — the zero-write audit
  // property test pins this.
  NetRoute trial_route(netlist::Id net, bool mls) const;

  const NetRoute& net_route(netlist::Id net) const { return routes_[net]; }
  const std::vector<NetRoute>& routes() const { return routes_; }
  // Per-edge results of the last (re)route, in topology edge order.
  const std::vector<EdgeRoute>& net_edges(netlist::Id net) const { return edge_routes_[net]; }
  // The net's 2-pin decomposition, derived on demand from the current
  // netlist: while the routes are current (routed_revision() equals the
  // netlist's revision) it is the tree net_edges() was routed on.
  NetTopology net_topology(netlist::Id net) const {
    return build_net_topology(design_, tech_, net);
  }
  const RoutingGrid& grid() const { return grid_; }

  // "M1-4(bot)+M6(top)" style rendering for Table I.
  static std::string describe_layers(const NetRoute& r);

  // Deep copy of the routing state that cannot be derived: routes, per-edge
  // results, negotiation history and routed revision. Grid usage is the sum
  // of the stored edges' footprints and topologies are a function of the
  // netlist, so neither is copied; restore() rebuilds usage by re-committing
  // every restored edge (usage counts are whole-number float sums, so the
  // rebuild is exact). checkpoint()/restore() bracket transactional pass
  // execution: a pass that dies mid-route leaves partial grid usage and a
  // prefix of committed edges, and restoring the checkpoint makes the router
  // bit-identical to its pre-dispatch state. The per-net edge lists are
  // packed into one contiguous array: checkpoint() runs on the hot path of
  // every transactional wave, and flat packing makes it a few bulk copies
  // instead of O(nets) small allocations. restore() — the rare rollback
  // path — pays the unpack and the re-commit.
  struct Checkpoint {
    std::vector<NetRoute> routes;
    std::vector<std::uint32_t> edge_count;   // per net
    std::vector<EdgeRoute> edge_routes;      // concatenated per-edge results
    std::vector<float> history;
    std::uint64_t routed_revision = 0;
  };
  Checkpoint checkpoint() const;
  void restore(const Checkpoint& cp);

 private:
  // Re-decomposes and routes one net edge-by-edge against the current grid
  // state (ECO repairs). Each edge's usage lands before the next edge is
  // chosen, and the per-edge results are stored on the router.
  NetRoute route_net(netlist::Id net, bool mls);
  void rip_up(netlist::Id net);
  void finish_route_all(RouteSummary& summary);
  // Deterministic total route order of `nets` for the given decisions (MLS
  // nets first by descending HPWL, then native ascending, net id as the
  // tie-break); sorts in place.
  void sort_route_order(std::vector<netlist::Id>& nets,
                        const std::vector<std::uint8_t>& mls_flags) const;
  RouteSummary summarize() const;
  bool flag_of(const std::vector<std::uint8_t>& flags, netlist::Id net) const {
    return !flags.empty() && net < flags.size() && flags[net] != 0;
  }
  const float* history_or_null() const {
    return history_.empty() ? nullptr : history_.data();
  }

  const netlist::Design& design_;
  const tech::Tech3D& tech_;
  RoutingGrid grid_;
  CandidateTable candidates_;  // route_edge()'s candidates for tech_
  std::vector<NetRoute> routes_;
  std::vector<std::vector<EdgeRoute>> edge_routes_;  // parallel to routes_
  std::vector<float> history_;  // negotiated congestion history (may be empty)
  std::uint64_t routed_revision_ = 0;
};

}  // namespace gnnmls::route
