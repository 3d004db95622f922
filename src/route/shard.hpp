// Phase 2 of the routing engine: region sharding.
//
// The gcell plane is tessellated into square shards. Every 2-pin edge is
// assigned to exactly one shard by the midpoint of its bounding box; the
// engine routes shards in a fixed row-major sequence, with the edges inside
// a shard routed speculatively against the grid state frozen at shard start.
// That makes the schedule Gauss-Seidel ACROSS shards (later shards see
// earlier shards' committed congestion) and Jacobi WITHIN a shard — and,
// because every commit happens in the deterministic bucket order, the
// result is a pure function of the input.
//
// Shards also scope the negotiation loop's rip-up: overflow masks are
// dilated by a halo of gcells so edges that merely neighbor a congested
// range (the classic boundary effect of region decomposition) are ripped up
// and renegotiated along with the direct offenders.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "route/grid.hpp"
#include "route/topology.hpp"

namespace gnnmls::route {

// One 2-pin routing task: an edge of some net's topology plus everything
// route_edge() needs to run it in isolation.
struct EdgeTask {
  netlist::Id net = 0;
  std::uint32_t edge = 0;
  Terminal a, b;   // parent terminal, child terminal
  bool mls = false;
};

// Square tessellation of the gcell plane.
class ShardMap {
 public:
  // shard_gcells < 1 is clamped to 1; a shard side larger than the grid
  // collapses the map to a single shard.
  ShardMap(int nx, int ny, int shard_gcells);

  int num_shards() const { return sx_ * sy_; }

  // Row-major shard id of a gcell.
  int shard_of(int gx, int gy) const {
    return (gy / shard_gcells_) * sx_ + (gx / shard_gcells_);
  }
  // Shard owning an edge: the midpoint of its terminal bounding box.
  int shard_of_task(const RoutingGrid& grid, const EdgeTask& t) const;

 private:
  int sx_ = 1, sy_ = 1, shard_gcells_ = 1;
};

// Buckets edge indices by owning shard, preserving the relative order of
// `edges` within each bucket (the global route order restricted to the
// shard, which is what makes the per-shard commit sequence deterministic).
std::vector<std::vector<std::uint32_t>> bucket_edges(const ShardMap& shards,
                                                     const RoutingGrid& grid,
                                                     std::span<const EdgeTask> edges);

// Per-track-cell overflow mask (1 = usage exceeds capacity somewhere within
// `halo` gcells on the same tier/layer plane). The dilation implements the
// shard-halo overlap: an edge committed near an overflowed range is a
// rip-up victim even if its own cells still fit.
std::vector<std::uint8_t> overflow_mask(const RoutingGrid& grid, int halo);

// Same for the per-gcell F2F bond-pad resource.
std::vector<std::uint8_t> f2f_overflow_mask(const RoutingGrid& grid, int halo);

}  // namespace gnnmls::route
