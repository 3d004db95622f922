// Phase 3 of the routing engine: deterministic negotiated congestion.
//
// PathFinder-style rip-up-and-reroute over the 2-pin edges produced by
// route/topology.hpp, sharded by route/shard.hpp:
//
//   1. Initial routing — shards in fixed row-major order; the edges of one
//      shard are routed concurrently against the grid frozen at shard start
//      and committed serially in deterministic order.
//   2. Negotiation — while track or F2F overflow remains: bump a per-cell
//      history cost on every overflowed cell, rip up every committed edge
//      whose footprint intersects the halo-dilated overflow mask, reroute
//      all victims concurrently against the frozen post-rip-up grid + the
//      updated history surface, and commit serially in edge order. An
//      iteration that makes the overflow census worse is reverted exactly
//      (per-edge footprints make rip-up/recommit lossless) and ends the
//      loop, so the final state is never worse than the initial routing.
//
// Determinism: every grid write happens on the calling thread in an order
// derived only from the deterministic edge list; worker threads compute
// EdgeRoutes into disjoint slots from read-only state. History bumps are
// commutative sums applied serially. The result is therefore a pure
// function of (netlist, flags, options) — bit-identical at any
// GNNMLS_THREADS, which the thread-sweep tests and ci.sh gate enforce.
//
// The loop is bounded by RouterOptions::max_negotiation_iters and
// stagnation_limit; it has no wall-clock deadline.
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
// global edge order; `edge_routes`/`commits` are per-net outputs sized by
// the caller (one slot per topology edge). `history` must be sized to the
// grid's track cells and is both consumed and updated.
struct NegotiationInput {
  RoutingGrid& grid;
  const tech::Tech3D& tech;
  const RouterOptions& options;
  std::span<const EdgeTask> edges;
  std::vector<float>& history;
  std::vector<std::vector<EdgeRoute>>& edge_routes;
  std::vector<NetCommit>& commits;
};

NegotiationStats route_negotiated(const NegotiationInput& in);

}  // namespace gnnmls::route
