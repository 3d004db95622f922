// Phase 3 of the routing engine: deterministic negotiated congestion.
//
// PathFinder-style rip-up-and-reroute over the 2-pin edges produced by
// route/topology.hpp, sharded by route/shard.hpp:
//
//   1. Initial routing — shards in fixed row-major order; the edges of one
//      shard are routed speculatively against the grid frozen at shard
//      start, then committed in deterministic order, with a live reroute
//      for any pick the committed edges before it made stressful.
//   2. Negotiation — while track or F2F overflow remains: bump a per-cell
//      history cost on every overflowed cell, rip up every committed edge
//      whose footprint intersects the halo-dilated overflow mask, reroute
//      all victims against the frozen post-rip-up grid + the updated
//      history surface, and commit in edge order the same way. An
//      iteration that makes the overflow census worse is reverted exactly
//      (an edge's footprint is derived from its EdgeRoute, so rip-up and
//      recommit are lossless) and the loop goes on with the bumped history;
//      a revert counts toward the stagnation limit. The final state is never
//      worse than the initial routing.
//
// The frozen-grid speculation and the commit repair define today's routes;
// routing runs on the calling thread, and the result is a pure function of
// (netlist, flags).
//
// Shard size, halo, history gain and the loop bounds (kMaxNegotiationIters,
// kStagnationLimit) are fixed constants in negotiate.cpp; the loop has no
// wall-clock deadline.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "route/router.hpp"
#include "route/shard.hpp"

namespace gnnmls::route {

struct NegotiationStats {
  std::size_t iterations = 0;        // negotiation iterations executed
  std::size_t ripups = 0;            // edge rip-ups across all iterations
  std::size_t initial_overflow = 0;  // track + F2F overflow cells after phase 1
  std::size_t final_overflow = 0;    // ... after negotiation
  bool converged = false;            // final overflow reached zero
};

// Everything route_negotiated() works on. `edges` is the deterministic
// global edge order; `edge_routes` is the per-net output sized by the caller
// (one slot per topology edge), and each slot's footprint is what the grid
// holds for that edge. `history` must be sized to the grid's track cells and
// is both consumed and updated.
struct NegotiationInput {
  RoutingGrid& grid;
  const tech::Tech3D& tech;
  std::span<const EdgeTask> edges;
  std::vector<float>& history;
  std::vector<std::vector<EdgeRoute>>& edge_routes;
};

NegotiationStats route_negotiated(const NegotiationInput& in);

}  // namespace gnnmls::route
