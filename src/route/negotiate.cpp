#include "route/negotiate.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gnnmls::route {

namespace {

// Shard side length in gcells for the initial sharded routing phase.
constexpr int kShardGcells = 16;
// Overflow-mask dilation: edges within this many gcells of a congested
// range are negotiation rip-up victims (the shard halo overlap).
constexpr int kHaloGcells = 2;
// Negotiation loop bounds: at most this many iterations, and a stop after
// kStagnationLimit consecutive iterations without strict improvement.
constexpr int kMaxNegotiationIters = 8;
constexpr int kStagnationLimit = 2;
// History cost added per unit of overflow per iteration (ps per visit).
constexpr double kHistoryGainPs = 1.5;

struct NegCounters {
  obs::Counter& iters = obs::Metrics::instance().counter("route.negotiation_iters");
  obs::Counter& ripups = obs::Metrics::instance().counter("route.negotiation_ripups");
  obs::Counter& reverts = obs::Metrics::instance().counter("route.negotiation_reverts");
  obs::Counter& shards = obs::Metrics::instance().counter("route.shards_routed");
  obs::Counter& repairs = obs::Metrics::instance().counter("route.commit_repairs");
  static NegCounters& get() {
    static NegCounters c;
    return c;
  }
};

// True when committing this edge onto the live grid would push any of its
// cells past `frac` of capacity. At frac = 1 this is "would overflow"; the
// commit loop uses a slightly lower fraction so speculative picks that land
// on NEAR-full cells also get a fresh live decision — the congestion
// penalty in the cost model only spreads load if the router sees the live
// usage, and every speculative pick of a bucket saw the same frozen grid.
// Without this check every edge in a shard piles onto the same cheapest
// layer pair.
bool would_stress(const RoutingGrid& grid, const EdgeRoute& er, float frac) {
  return for_each_cell(
      grid, er,
      [&](std::size_t i) { return grid.usage_at(i) + 1.0f > frac * grid.capacity_at(i); },
      [&](std::size_t i) { return grid.f2f_usage_at(i) + 1.0f > grid.f2f_capacity(); });
}

// Serially commits the speculative results for `idxs`, reroute-on-conflict:
// an edge whose speculative choice no longer fits the live grid is rerouted
// right here against the live congestion (the Gauss-Seidel feedback that
// edge-by-edge routing gets for free). Commit order is the deterministic
// bucket order, and the live grid evolves with it.
// Speculative picks touching cells above this fraction of capacity are
// rerouted live at commit. 1.0 would repair only outright overflow;
// repairing a little early keeps edge-by-edge packing quality
// in regions that are filling up, at the cost of a few extra serial
// reroutes (the route.commit_repairs counter tracks how many).
constexpr float kRepairFraction = 0.75f;

void commit_results(const NegotiationInput& in, std::span<const std::uint32_t> idxs,
                    std::span<const EdgeRoute> results, std::uint64_t* repairs) {
  const EdgeCostModel live{in.grid, in.tech, in.history.data()};
  for (std::size_t k = 0; k < idxs.size(); ++k) {
    const EdgeTask& t = in.edges[idxs[k]];
    EdgeRoute er = results[k];
    // Repair when the live grid disagrees with the speculation: the pick
    // crowds a (near-)full live cell, or it was already squeezing through
    // overfull cells at snapshot time (then the live state deserves a fresh
    // decision — this is what keeps congested regions at edge-by-edge
    // quality while uncontended regions keep their speculative result
    // untouched).
    if (would_stress(in.grid, er, kRepairFraction) || er.overflow >= 1.0f) {
      static obs::Histogram& edge_s = obs::Metrics::instance().histogram("route.edge_route_s");
      const auto t0 = std::chrono::steady_clock::now();
      er = route_edge(live, t.a, t.b, t.mls);
      edge_s.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
      ++*repairs;
    }
    in.edge_routes[t.net][t.edge] = er;
    commit_edge(in.grid, er, 1.0f);
  }
}

// Routes edges[idx] for every idx in `idxs` into result slots parallel to
// `idxs`, each against the grid and history frozen at the call: no result
// is committed until commit_results runs over the whole bucket.
void route_tasks(const NegotiationInput& in, std::span<const std::uint32_t> idxs,
                 std::vector<EdgeRoute>& results) {
  results.resize(idxs.size());
  const EdgeCostModel model{in.grid, in.tech, in.history.data()};
  // The distribution the mean hides: a handful of long congested edges
  // dominate the tail while most route in sub-µs.
  static obs::Histogram& edge_s = obs::Metrics::instance().histogram("route.edge_route_s");
  for (std::size_t k = 0; k < idxs.size(); ++k) {
    const EdgeTask& t = in.edges[idxs[k]];
    const auto t0 = std::chrono::steady_clock::now();
    results[k] = route_edge(model, t.a, t.b, t.mls);
    edge_s.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
}

// Total overflow cells (tracks + F2F pads): the quantity negotiation
// minimizes. Ties break on max congestion so a strictly flatter state with
// the same cell count still counts as progress.
std::pair<std::size_t, double> census_key(const RoutingGrid::Census& c) {
  return {c.overflow_gcells + c.f2f_overflow_gcells, c.max_congestion};
}

}  // namespace

NegotiationStats route_negotiated(const NegotiationInput& in) {
  NegotiationStats stats;

  // ---- phase 1: sharded initial routing -----------------------------------
  {
    GNNMLS_SPAN("route.shards");
    const ShardMap shards(in.grid.nx(), in.grid.ny(), kShardGcells);
    const auto buckets = bucket_edges(shards, in.grid, in.edges);
    std::vector<EdgeRoute> results;
    std::uint64_t shards_routed = 0, repairs = 0;
    for (const std::vector<std::uint32_t>& bucket : buckets) {
      if (bucket.empty()) continue;
      GNNMLS_SPAN("route.shard");
      ++shards_routed;
      route_tasks(in, bucket, results);
      commit_results(in, bucket, results, &repairs);
    }
    NegCounters::get().shards.add(shards_routed);
    NegCounters::get().repairs.add(repairs);
  }

  // ---- phase 2: negotiation loop ------------------------------------------
  RoutingGrid::Census census = in.grid.census();
  stats.initial_overflow = census.overflow_gcells + census.f2f_overflow_gcells;
  int stagnant = 0;
  std::vector<EdgeRoute> results;
  for (int iter = 0; iter < kMaxNegotiationIters; ++iter) {
    if (census_key(census).first == 0) break;
    GNNMLS_SPAN("route.negotiate.iter");

    // History bump: every overflowed track cell gets more expensive for the
    // rest of the run.
    const std::size_t plane = static_cast<std::size_t>(in.grid.nx()) * in.grid.ny();
    for (int tier = 0; tier < 2; ++tier)
      for (int layer = 0; layer < in.grid.num_layers(tier); ++layer) {
        const std::size_t base = in.grid.track_index(tier, layer, 0, 0);
        for (std::size_t i = base; i < base + plane; ++i) {
          const double cong = in.grid.congestion_at(i);
          if (cong > 1.0) in.history[i] += static_cast<float>(kHistoryGainPs * (cong - 1.0));
        }
      }

    // Victims: every committed edge whose footprint intersects the
    // halo-dilated overflow masks, in deterministic global edge order.
    const std::vector<std::uint8_t> mask = overflow_mask(in.grid, kHaloGcells);
    const std::vector<std::uint8_t> fmask = f2f_overflow_mask(in.grid, kHaloGcells);
    std::vector<std::uint32_t> victims;
    for (std::uint32_t i = 0; i < in.edges.size(); ++i) {
      const EdgeTask& t = in.edges[i];
      if (for_each_cell(
              in.grid, in.edge_routes[t.net][t.edge],
              [&](std::size_t cell) { return mask[cell] != 0; },
              [&](std::size_t cell) { return fmask[cell] != 0; }))
        victims.push_back(i);
    }
    if (victims.empty()) break;  // overflow without a committed offender (reservations)

    // Rip up, keeping the previous routes for an exact revert.
    std::vector<EdgeRoute> old_routes(victims.size());
    for (std::size_t k = 0; k < victims.size(); ++k) {
      const EdgeTask& t = in.edges[victims[k]];
      old_routes[k] = in.edge_routes[t.net][t.edge];
      commit_edge(in.grid, old_routes[k], -1.0f);
    }

    // Reroute all victims Jacobi-style against the frozen post-rip-up grid
    // and the updated history, then commit in edge order with the same
    // reroute-on-conflict rule as the initial phase.
    route_tasks(in, victims, results);
    std::uint64_t repairs = 0;
    commit_results(in, victims, results, &repairs);
    NegCounters::get().repairs.add(repairs);
    ++stats.iterations;
    stats.ripups += victims.size();

    const RoutingGrid::Census next = in.grid.census();
    if (census_key(census) < census_key(next)) {
      // Worse than before the iteration: revert it exactly, but keep going —
      // the history bumps survive, so the next attempt routes differently.
      // Reverts keep the engine monotone (the state only ever replaces a
      // strictly-not-worse one), and count toward stagnation so a thrashing
      // loop still terminates.
      for (std::size_t k = 0; k < victims.size(); ++k) {
        const EdgeTask& t = in.edges[victims[k]];
        EdgeRoute& er = in.edge_routes[t.net][t.edge];
        commit_edge(in.grid, er, -1.0f);
        er = old_routes[k];
        commit_edge(in.grid, er, 1.0f);
      }
      NegCounters::get().reverts.add(1);
      ++stagnant;
    } else if (census_key(next) < census_key(census)) {
      stagnant = 0;
      census = next;
    } else {
      ++stagnant;
      census = next;
    }
    if (stagnant >= kStagnationLimit) break;
  }

  const RoutingGrid::Census final_census = in.grid.census();
  stats.final_overflow = final_census.overflow_gcells + final_census.f2f_overflow_gcells;
  stats.converged = stats.final_overflow == 0;
  NegCounters& nc = NegCounters::get();
  nc.iters.add(stats.iterations);
  nc.ripups.add(stats.ripups);
  // Distribution counterpart of the route.negotiation_iters counter: the
  // per-call iteration count, which is bimodal (clean designs converge in
  // 1-2, congested ones run to the cap).
  static obs::Histogram& iters_hist =
      obs::Metrics::instance().histogram("route.negotiation_iters_per_call");
  iters_hist.observe(static_cast<double>(stats.iterations));
  util::log_debug("negotiate: ", stats.iterations, " iterations, ", stats.ripups,
                  " rip-ups, overflow ", stats.initial_overflow, " -> ", stats.final_overflow);
  return stats;
}

}  // namespace gnnmls::route
