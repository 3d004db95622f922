#include "route/negotiate.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gnnmls::route {

namespace {

// Overflow-mask dilation: edges within this many gcells of a congested
// range are negotiation rip-up victims along with the direct offenders.
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
  obs::Counter& edge_routes = obs::Metrics::instance().counter("route.edge_routes");
  static NegCounters& get() {
    static NegCounters c;
    return c;
  }
};

// Routes in.edges[i] against the live grid into in.routes[i] and commits it
// at once, so every edge routed after it prices the usage it adds.
void route_live(const NegotiationInput& in, const EdgeCostModel& model, std::uint32_t i) {
  const EdgeTask& t = in.edges[i];
  EdgeRoute& er = in.routes[i];
  er = route_edge(model, t.a, t.b, t.mls);
  commit_edge(in.grid, er, 1.0f);
}

// Marks a (2*halo+1)^2 box around (x, y) in one plane of `mask`.
void mark_box(std::vector<std::uint8_t>& mask, std::size_t plane_base, int nx, int ny, int x,
              int y, int halo) {
  const int xs = std::max(0, x - halo), xe = std::min(nx - 1, x + halo);
  const int ys = std::max(0, y - halo), ye = std::min(ny - 1, y + halo);
  for (int yy = ys; yy <= ye; ++yy)
    for (int xx = xs; xx <= xe; ++xx)
      mask[plane_base + static_cast<std::size_t>(yy * nx + xx)] = 1;
}

// Per-track-cell overflow mask: 1 where usage exceeds capacity somewhere
// within `halo` gcells on the same tier/layer plane, so an edge committed
// near an overflowed range is a rip-up victim even if its own cells fit.
std::vector<std::uint8_t> overflow_mask(const RoutingGrid& grid, int halo) {
  std::vector<std::uint8_t> mask(grid.num_track_cells(), 0);
  const int nx = grid.nx(), ny = grid.ny();
  for (int tier = 0; tier < 2; ++tier) {
    for (int layer = 0; layer < grid.num_layers(tier); ++layer) {
      const std::size_t plane_base = grid.track_index(tier, layer, 0, 0);
      for (int y = 0; y < ny; ++y)
        for (int x = 0; x < nx; ++x)
          if (grid.usage(tier, layer, x, y) > grid.capacity(tier, layer, x, y))
            mark_box(mask, plane_base, nx, ny, x, y, halo);
    }
  }
  return mask;
}

// Same for the per-gcell F2F bond-pad resource.
std::vector<std::uint8_t> f2f_overflow_mask(const RoutingGrid& grid, int halo) {
  std::vector<std::uint8_t> mask(grid.num_f2f_cells(), 0);
  const int nx = grid.nx(), ny = grid.ny();
  for (int y = 0; y < ny; ++y)
    for (int x = 0; x < nx; ++x)
      if (grid.f2f_usage(x, y) > grid.f2f_capacity()) mark_box(mask, 0, nx, ny, x, y, halo);
  return mask;
}

// Total overflow cells (tracks + F2F pads): the quantity negotiation
// minimizes. Ties break on max congestion so a strictly flatter state with
// the same cell count still counts as progress.
std::pair<std::size_t, double> census_key(const RoutingGrid::Census& c) {
  return {c.overflow_gcells + c.f2f_overflow_gcells, c.max_congestion};
}

}  // namespace

NegotiationStats route_negotiated(const NegotiationInput& in) {
  if (in.routes.size() != in.edges.size())
    throw std::invalid_argument("route_negotiated: routes must be parallel to edges");
  NegotiationStats stats;

  const EdgeCostModel model{in.grid, in.candidates, in.history.data()};

  // ---- phase 1: initial routing, edge by edge on the live grid ------------
  for (std::uint32_t i = 0; i < in.edges.size(); ++i) route_live(in, model, i);
  NegCounters::get().edge_routes.add(in.edges.size());

  // ---- phase 2: negotiation loop ------------------------------------------
  RoutingGrid::Census census = in.grid.census();
  stats.initial_overflow = census.overflow_gcells + census.f2f_overflow_gcells;
  int stagnant = 0;
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
    for (std::uint32_t i = 0; i < in.routes.size(); ++i) {
      if (for_each_cell(
              in.grid, in.routes[i], [&](std::size_t cell) { return mask[cell] != 0; },
              [&](std::size_t cell) { return fmask[cell] != 0; }))
        victims.push_back(i);
    }
    if (victims.empty()) break;  // overflow without a committed offender (reservations)

    // Rip up, keeping the previous routes for an exact revert.
    std::vector<EdgeRoute> old_routes(victims.size());
    for (std::size_t k = 0; k < victims.size(); ++k) {
      old_routes[k] = in.routes[victims[k]];
      commit_edge(in.grid, old_routes[k], -1.0f);
    }

    // Reroute the victims in edge order against the live grid and the
    // updated history, each committed before the next is priced.
    for (const std::uint32_t v : victims) route_live(in, model, v);
    NegCounters::get().edge_routes.add(victims.size());
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
        EdgeRoute& er = in.routes[victims[k]];
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
