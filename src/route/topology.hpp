// Phase 1 of the routing engine: 2-pin decomposition.
//
// Every multi-pin net is decomposed into a driver-rooted spanning tree
// (Prim, Manhattan metric) whose tree edges are the atomic routing unit —
// the `Route_2pinnets` structure of negotiation-based global routers, and
// the same net -> 2-pin-edge decomposition GAT-Steiner uses as its ML
// granularity. This header owns the edge primitive end to end:
//
//   * NetTopology      — the tree (terminals + parent array) of one net
//   * CandidateTable   — every tier/layer-pair candidate with its tech-only
//                        constants (R/C per um, via term), built once per
//                        Router
//   * route_edge()     — cost-driven layer-pair/tier selection for one edge
//                        against a read-only grid view, with an optional
//                        negotiated-congestion history term; one walk of the
//                        edge's L prices all of its candidates
//   * for_each_cell()  — the grid footprint of a routed edge, derived from
//                        its EdgeRoute; commit_edge() adds or subtracts it,
//                        so a rip-up removes exactly what a commit added
//   * assemble_net_route() — per-net electrical model (load + Elmore) from
//                        the routed edges
//
// route_edge() is pure with respect to the grid (reads only): the caller
// commits its result (route/negotiate.hpp commits each edge before it
// prices the next; Router::trial_route commits nothing).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/generators.hpp"
#include "route/grid.hpp"
#include "tech/tech.hpp"

namespace gnnmls::route {

struct NetRoute;  // route/router.hpp

// How many of the other tier's top layer pairs an MLS edge may use (paper:
// M5-6). route_edge() enumerates them; check rule RT-002 enforces them.
inline constexpr int kSharedLayers = 2;

// One terminal of a net: pin position + electrical role.
struct Terminal {
  float x = 0.0f, y = 0.0f;
  std::uint8_t tier = 0;
  float pin_cap_ff = 0.0f;  // 0 for the driver terminal
};

// Driver-rooted spanning tree over one net's terminals. terms[0] is the
// driver; edge e (0-based) joins child terminal e+1 to terms[parent[e+1]].
// Nets without a driver or without sinks decompose into zero edges.
struct NetTopology {
  std::vector<Terminal> terms;
  std::vector<int> parent;  // parallel to terms; parent[0] == -1
  std::size_t num_edges() const { return terms.empty() ? 0 : terms.size() - 1; }
};

NetTopology build_net_topology(const netlist::Design& design, const tech::Tech3D& tech,
                               netlist::Id net);

// Routed result of one 2-pin edge. Electrical values are post-detour (the
// overflow-driven wirelength inflation is already applied), so Elmore
// assembly consumes them directly.
struct EdgeRoute {
  bool routed = false;       // false: no candidate existed (degenerate edge)
  std::uint8_t route_tier = 0;
  std::uint8_t layer_lo = 1;   // chosen pair (layer_lo, layer_lo + 1)
  std::uint8_t hlayer = 1, vlayer = 2;
  std::uint8_t f2f = 0;        // 0 | 1 (tier change) | 2 (MLS round trip)
  bool shared = false;         // MLS shared-layer choice
  bool fallback = false;       // MLS edge that fell back to native metal
  std::uint16_t gx1 = 0, gy1 = 0, gx2 = 0, gy2 = 0;
  float wl_um = 0.0f;
  float res_ohm = 0.0f;
  float cap_ff = 0.0f;
  float detour = 1.0f;
  float overflow = 0.0f;       // max usage/capacity seen at selection time
  std::uint32_t candidates = 0;  // candidates examined (obs counters)
  friend bool operator==(const EdgeRoute&, const EdgeRoute&) = default;
};

// One tier/layer-pair way to route a 2-pin edge, with every constant that
// depends only on the tech: the pair and its horizontal/vertical members,
// their R and C per um, and the via term — the via stacks at both ends plus
// the F2F pads, which depends on the driver tier whose list holds it.
struct EdgeCandidate {
  std::uint8_t route_tier = 0;
  std::uint8_t layer_lo = 1;   // pair (layer_lo, layer_lo + 1)
  std::uint8_t hlayer = 1, vlayer = 2;
  std::uint8_t f2f = 0;        // 0 | 1 (tier change) | 2 (MLS round trip)
  bool shared = false;
  double r_h = 0.0, r_v = 0.0;   // ohm per um of the H / V layer
  double c_h = 0.0, c_v = 0.0;   // fF per um of the H / V layer
  double via_r = 0.0, via_c = 0.0;
};

// Every candidate route_edge() prices, in enumeration order, per driver
// (parent-terminal) tier: `native` pairs on the driver's own tier (also the
// MLS fallback), `cross_tier` pairs on either tier for an edge whose child
// is on the other tier (one F2F), and the other tier's top kSharedLayers
// pairs for a forced MLS edge (an F2F round trip).
struct CandidateTable {
  struct Lists {
    std::vector<EdgeCandidate> native, cross_tier, shared;
  };
  Lists by_driver[2];

  explicit CandidateTable(const tech::Tech3D& tech);
};

// Read-only context for routing one edge. `candidates` must be built from
// the tech the grid was built from. `history` is the negotiated-congestion
// cost surface (ps per track-cell visit), indexed like the grid's flat track
// cells; null disables the history term (trials before the first route).
struct EdgeCostModel {
  const RoutingGrid& grid;
  const CandidateTable& candidates;
  const float* history = nullptr;
};

// Routes one tree edge: scores each of its candidates (native, cross-tier,
// or MLS shared with native fallback) with the RC + congestion (+ history)
// cost and returns the cheapest, the first on a tie. Pure: never writes the
// grid.
EdgeRoute route_edge(const EdgeCostModel& m, const Terminal& a, const Terminal& b,
                     bool mls);

// Walks the grid footprint of a routed edge as flat indices: the track
// cells of its L (the horizontal leg on hlayer along row gy1, then the
// vertical leg on vlayer along column gx2), then its F2F pad cells (gx1,gy1
// for a tier change, plus gx2,gy2 for an MLS round trip). The footprint is a
// pure function of the EdgeRoute. `track(i)` and `f2f(i)` return true to
// stop the walk; for_each_cell returns true iff one did. An unrouted edge
// has no footprint.
template <class TrackFn, class F2fFn>
bool for_each_cell(const RoutingGrid& grid, const EdgeRoute& er, TrackFn&& track,
                   F2fFn&& f2f) {
  if (!er.routed) return false;
  const int xs = std::min(er.gx1, er.gx2), xe = std::max(er.gx1, er.gx2);
  std::size_t i = grid.track_index(er.route_tier, er.hlayer, xs, er.gy1);
  for (int x = xs; x <= xe; ++x, ++i)
    if (track(i)) return true;
  const int ys = std::min(er.gy1, er.gy2), ye = std::max(er.gy1, er.gy2);
  const auto nx = static_cast<std::size_t>(grid.nx());
  i = grid.track_index(er.route_tier, er.vlayer, er.gx2, ys);
  for (int y = ys; y <= ye; ++y, i += nx)
    if (track(i)) return true;
  if (er.f2f > 0 && f2f(grid.f2f_index(er.gx1, er.gy1))) return true;
  if (er.f2f > 1 && f2f(grid.f2f_index(er.gx2, er.gy2))) return true;
  return false;
}

// Adds `amount` (+1.0f to commit, -1.0f to rip up) to every cell of the
// edge's footprint.
void commit_edge(RoutingGrid& grid, const EdgeRoute& er, float amount);

// Aggregates the routed edges of one net into its NetRoute: wirelength,
// RC totals, layer masks, driver load, and per-sink Elmore delays. `terms`
// and `parent` are the net's tree (a NetTopology's two arrays).
NetRoute assemble_net_route(const netlist::Netlist& nl, netlist::Id net,
                            std::span<const Terminal> terms, std::span<const int> parent,
                            std::span<const EdgeRoute> edges);

}  // namespace gnnmls::route
