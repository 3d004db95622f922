#include "route/negotiate.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>

#include "flow/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gnnmls::route {

namespace {

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
// usage, and parallel workers all see the same frozen snapshot. Without
// this check every edge in a shard piles onto the same cheapest layer pair.
bool would_stress(const RoutingGrid& grid, const EdgeRoute& er, float frac) {
  if (!er.routed) return false;
  const int tier = er.route_tier;
  auto full = [&](int layer, int x, int y) {
    return grid.usage(tier, layer, x, y) + 1.0f > frac * grid.capacity(tier, layer, x, y);
  };
  const int xs = std::min(er.gx1, er.gx2), xe = std::max(er.gx1, er.gx2);
  for (int x = xs; x <= xe; ++x)
    if (full(er.hlayer, x, er.gy1)) return true;
  const int ys = std::min(er.gy1, er.gy2), ye = std::max(er.gy1, er.gy2);
  for (int y = ys; y <= ye; ++y)
    if (full(er.vlayer, er.gx2, y)) return true;
  if (er.f2f > 0 && grid.f2f_usage(er.gx1, er.gy1) + 1.0f > grid.f2f_capacity()) return true;
  if (er.f2f > 1 && grid.f2f_usage(er.gx2, er.gy2) + 1.0f > grid.f2f_capacity()) return true;
  return false;
}

// Serially commits the speculative results for `idxs`, reroute-on-conflict:
// an edge whose speculative choice no longer fits the live grid is rerouted
// right here against the live congestion (the Gauss-Seidel feedback that
// edge-by-edge routing gets for free). Commit order is the deterministic
// bucket order and the live grid evolves deterministically with it, so the outcome
// is independent of how the speculative routing was threaded.
// Speculative picks touching cells above this fraction of capacity are
// rerouted live at commit. 1.0 would repair only outright overflow;
// repairing a little early keeps edge-by-edge packing quality
// in regions that are filling up, at the cost of a few extra serial
// reroutes (the route.commit_repairs counter tracks how many).
constexpr float kRepairFraction = 0.75f;

void commit_results(const NegotiationInput& in, std::span<const std::uint32_t> idxs,
                    std::span<const EdgeRoute> results, std::uint64_t* repairs) {
  const EdgeCostModel live{in.grid, in.tech, in.options, in.history.data()};
  for (std::size_t k = 0; k < idxs.size(); ++k) {
    const EdgeTask& t = in.edges[idxs[k]];
    EdgeRoute er = results[k];
    // Repair when the live grid disagrees with the speculation: the pick
    // crowds a (near-)full live cell, or it was already squeezing through
    // overfull cells at snapshot time (then the live state deserves a fresh
    // decision — this is what keeps congested regions at serial-engine
    // quality while uncontended regions keep their parallel speculative
    // result untouched).
    if (would_stress(in.grid, er, kRepairFraction) || er.overflow >= 1.0f) {
      static obs::Histogram& edge_s = obs::Metrics::instance().histogram("route.edge_route_s");
      const auto t0 = std::chrono::steady_clock::now();
      er = route_edge(live, t.a, t.b, t.mls);
      edge_s.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
      ++*repairs;
    }
    in.edge_routes[t.net][t.edge] = er;
    commit_edge(in.grid, er, &in.commits[t.net].edges[t.edge]);
  }
}

// Routes edges[idx] for every idx in `idxs` into result slots parallel to
// `idxs`. Workers only read the frozen grid/history and write disjoint
// slots, so the results are independent of the thread count and chunking.
void route_tasks(const flow::Executor& ex, const NegotiationInput& in,
                 std::span<const std::uint32_t> idxs, std::vector<EdgeRoute>& results) {
  results.resize(idxs.size());
  const EdgeCostModel model{in.grid, in.tech, in.options, in.history.data()};
  auto route_range = [&](std::size_t lo, std::size_t hi) {
    // The distribution the mean hides: a handful of long congested edges
    // dominate the tail while most route in sub-µs. Always-on (relaxed
    // atomics), concurrent-writer safe.
    static obs::Histogram& edge_s = obs::Metrics::instance().histogram("route.edge_route_s");
    for (std::size_t k = lo; k < hi; ++k) {
      const EdgeTask& t = in.edges[idxs[k]];
      const auto t0 = std::chrono::steady_clock::now();
      results[k] = route_edge(model, t.a, t.b, t.mls);
      edge_s.observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
  };
  if (ex.threads() <= 1 || idxs.size() <= 1) {
    route_range(0, idxs.size());
    return;
  }
  // A few chunks per thread so the executor's work-stealing evens out
  // uneven edge sizes without paying a task dispatch per edge.
  const std::size_t nchunks =
      std::min(idxs.size(), static_cast<std::size_t>(ex.threads()) * 4);
  const std::size_t chunk = (idxs.size() + nchunks - 1) / nchunks;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(nchunks);
  for (std::size_t lo = 0; lo < idxs.size(); lo += chunk) {
    const std::size_t hi = std::min(idxs.size(), lo + chunk);
    tasks.emplace_back([&route_range, lo, hi] { route_range(lo, hi); });
  }
  ex.run(tasks);
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
  const RouterOptions& opt = in.options;
  const flow::Executor ex(flow::Executor::threads_from_env());

  // ---- phase 1: sharded initial routing -----------------------------------
  {
    GNNMLS_SPAN("route.shards");
    const ShardMap shards(in.grid.nx(), in.grid.ny(), opt.shard_gcells);
    const auto buckets = bucket_edges(shards, in.grid, in.edges);
    std::vector<EdgeRoute> results;
    std::uint64_t shards_routed = 0, repairs = 0;
    for (const std::vector<std::uint32_t>& bucket : buckets) {
      if (bucket.empty()) continue;
      GNNMLS_SPAN("route.shard");
      ++shards_routed;
      route_tasks(ex, in, bucket, results);
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
  for (int iter = 0; iter < opt.max_negotiation_iters; ++iter) {
    if (census_key(census).first == 0) break;
    GNNMLS_SPAN("route.negotiate.iter");

    // History bump: every overflowed track cell gets more expensive for the
    // rest of the run. The updates are commutative sums applied serially, so
    // the surface is identical no matter how the routing work was threaded.
    for (int tier = 0; tier < 2; ++tier)
      for (int layer = 0; layer < in.grid.num_layers(tier); ++layer)
        for (int y = 0; y < in.grid.ny(); ++y)
          for (int x = 0; x < in.grid.nx(); ++x) {
            const double cong = in.grid.congestion(tier, layer, x, y);
            if (cong > 1.0)
              in.history[in.grid.track_index(tier, layer, x, y)] +=
                  static_cast<float>(opt.history_gain_ps * (cong - 1.0));
          }

    // Victims: every committed edge whose footprint intersects the
    // halo-dilated overflow masks, in deterministic global edge order.
    const std::vector<std::uint8_t> mask = overflow_mask(in.grid, opt.halo_gcells);
    const std::vector<std::uint8_t> fmask = f2f_overflow_mask(in.grid, opt.halo_gcells);
    std::vector<std::uint32_t> victims;
    for (std::uint32_t i = 0; i < in.edges.size(); ++i) {
      const EdgeTask& t = in.edges[i];
      const EdgeCommit& c = in.commits[t.net].edges[t.edge];
      bool hit = false;
      for (const std::uint32_t cell : c.tracks)
        if (mask[cell] != 0) {
          hit = true;
          break;
        }
      if (!hit)
        for (const std::uint32_t cell : c.f2f)
          if (fmask[cell] != 0) {
            hit = true;
            break;
          }
      if (hit) victims.push_back(i);
    }
    if (victims.empty()) break;  // overflow without a committed offender (reservations)

    // Rip up, keeping the previous routes/footprints for an exact revert.
    std::vector<EdgeRoute> old_routes(victims.size());
    std::vector<EdgeCommit> old_commits(victims.size());
    for (std::size_t k = 0; k < victims.size(); ++k) {
      const EdgeTask& t = in.edges[victims[k]];
      old_routes[k] = in.edge_routes[t.net][t.edge];
      old_commits[k] = std::move(in.commits[t.net].edges[t.edge]);
      in.commits[t.net].edges[t.edge] = EdgeCommit{};
      for (const std::uint32_t cell : old_commits[k].tracks) in.grid.add_usage_at(cell, -1.0f);
      for (const std::uint32_t cell : old_commits[k].f2f) in.grid.add_f2f_at(cell, -1.0f);
    }

    // Reroute all victims Jacobi-style against the frozen post-rip-up grid
    // and the updated history, then commit serially in edge order with the
    // same reroute-on-conflict rule as the initial phase.
    route_tasks(ex, in, victims, results);
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
        uncommit_edge(in.grid, in.commits[t.net].edges[t.edge]);
        in.edge_routes[t.net][t.edge] = old_routes[k];
        in.commits[t.net].edges[t.edge] = std::move(old_commits[k]);
        for (const std::uint32_t cell : in.commits[t.net].edges[t.edge].tracks)
          in.grid.add_usage_at(cell, 1.0f);
        for (const std::uint32_t cell : in.commits[t.net].edges[t.edge].f2f)
          in.grid.add_f2f_at(cell, 1.0f);
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
    if (stagnant >= opt.stagnation_limit) break;
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
