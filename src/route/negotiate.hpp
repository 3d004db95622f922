// Phase 2 of the routing engine: serial routing with negotiated congestion.
//
// PathFinder-style rip-up-and-reroute over the 2-pin edges produced by
// route/topology.hpp, one edge at a time on the live grid (the nthu-route
// Route_2pinnets order):
//
//   1. Initial routing — every edge, in the global edge order, is routed
//      against the live grid and committed at once, so edge k prices the
//      usage of edges 0..k-1.
//   2. Negotiation — while track or F2F overflow remains: bump a per-cell
//      history cost on every overflowed cell, rip up every committed edge
//      whose footprint intersects the halo-dilated overflow mask, then
//      reroute and commit the victims one by one in edge order against the
//      live grid and the updated history surface. An iteration that makes
//      the overflow census worse is reverted exactly (an edge's footprint is
//      derived from its EdgeRoute, so rip-up and recommit are lossless) and
//      the loop goes on with the bumped history; a revert counts toward the
//      stagnation limit. The final state is never worse than the initial
//      routing.
//
// Routing runs on the calling thread, and the result is a pure function of
// (netlist, flags). The halo, history gain and the loop bounds
// (kMaxNegotiationIters, kStagnationLimit) are fixed constants in
// negotiate.cpp; the loop has no wall-clock deadline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "route/router.hpp"

namespace gnnmls::route {

// One 2-pin routing task: an edge of some net's topology plus everything
// route_edge() needs to run it.
struct EdgeTask {
  netlist::Id net = 0;
  std::uint32_t edge = 0;
  Terminal a, b;   // parent terminal, child terminal
  bool mls = false;
};

struct NegotiationStats {
  std::size_t iterations = 0;        // negotiation iterations executed
  std::size_t ripups = 0;            // edge rip-ups across all iterations
  std::size_t initial_overflow = 0;  // track + F2F overflow cells after phase 1
  std::size_t final_overflow = 0;    // ... after negotiation
  bool converged = false;            // final overflow reached zero
};

// Everything route_negotiated() works on. `edges` is the deterministic
// global edge order and `routes` its output, parallel to it (sized by the
// caller): routes[i] is edges[i]'s result, and its footprint is what the
// grid holds for that edge, so the victim scan, rip-up, reroute and revert
// walk it in order. `candidates` must be built from the grid's tech.
// `history` must be sized to the grid's track cells and is both consumed and
// updated.
struct NegotiationInput {
  RoutingGrid& grid;
  const CandidateTable& candidates;
  std::span<const EdgeTask> edges;
  std::vector<float>& history;
  std::span<EdgeRoute> routes;
};

NegotiationStats route_negotiated(const NegotiationInput& in);

}  // namespace gnnmls::route
