// Phase 1 of the routing engine: 2-pin decomposition.
//
// Every multi-pin net is decomposed into a driver-rooted spanning tree
// (Prim, Manhattan metric) whose tree edges are the atomic routing unit —
// the `Route_2pinnets` structure of negotiation-based global routers, and
// the same net -> 2-pin-edge decomposition GAT-Steiner uses as its ML
// granularity. This header owns the edge primitive end to end:
//
//   * NetTopology      — the tree (terminals + parent array) of one net
//   * route_edge()     — cost-driven layer-pair/tier selection for one edge
//                        against a read-only grid view, with an optional
//                        negotiated-congestion history term
//   * EdgeCommit       — the exact grid resources one committed edge holds,
//                        so a negotiation rip-up can subtract a single edge
//   * assemble_net_route() — per-net electrical model (load + Elmore) from
//                        the routed edges
//
// route_edge() is deliberately pure with respect to the grid (reads only):
// the sharded engine (route/shard.hpp, route/negotiate.hpp) routes a whole
// bucket of edges against one frozen congestion snapshot before it commits
// any of them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/generators.hpp"
#include "route/grid.hpp"
#include "tech/tech.hpp"

namespace gnnmls::route {

struct RouterOptions;  // route/router.hpp
struct NetRoute;       // route/router.hpp

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

// Grid resources one committed edge holds: flat track-cell indices plus F2F
// pad cells, recorded at commit time so a per-edge rip-up can subtract them
// exactly (usage counts are whole-number sums of 1.0f, so add/subtract
// round-trips are exact).
struct EdgeCommit {
  std::vector<std::uint32_t> tracks;
  std::vector<std::uint32_t> f2f;
  bool empty() const { return tracks.empty() && f2f.empty(); }
  friend bool operator==(const EdgeCommit&, const EdgeCommit&) = default;
};

// Grid resources one committed net holds: one footprint per topology edge,
// so both a whole-net ECO rip-up and a single-edge negotiation rip-up
// subtract exactly what was added.
struct NetCommit {
  std::vector<EdgeCommit> edges;
};

// Read-only context for routing one edge. `history` is the negotiated-
// congestion cost surface (ps per track-cell visit), indexed like the
// grid's flat track cells; null disables the history term (trials before
// the first route).
struct EdgeCostModel {
  const RoutingGrid& grid;
  const tech::Tech3D& tech;
  const RouterOptions& options;
  const float* history = nullptr;
};

// Routes one tree edge: enumerates tier/layer-pair candidates (native,
// cross-tier, or MLS shared with native fallback), scores each with the
// RC + congestion (+ history) cost, and returns the cheapest. Pure: never
// writes the grid.
EdgeRoute route_edge(const EdgeCostModel& m, const Terminal& a, const Terminal& b,
                     bool mls);

// Adds the edge's usage (L-walk tracks + F2F pads) to the grid, recording
// every touched cell into `rec` when non-null.
void commit_edge(RoutingGrid& grid, const EdgeRoute& er, EdgeCommit* rec);

// Subtracts a committed edge's usage and clears the record.
void uncommit_edge(RoutingGrid& grid, EdgeCommit& rec);

// Aggregates the routed edges of one net into its NetRoute: wirelength,
// RC totals, layer masks, driver load, and per-sink Elmore delays.
NetRoute assemble_net_route(const netlist::Netlist& nl, netlist::Id net,
                            const NetTopology& topo, std::span<const EdgeRoute> edges);

}  // namespace gnnmls::route
