#include "route/topology.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "route/router.hpp"

namespace gnnmls::route {

namespace {

using netlist::Id;
using netlist::kNullId;

// Tree edges shorter than this stay native even on MLS nets (an F2F hop
// would dominate).
constexpr double kMinMlsEdgeUm = 16.0;
// Congestion penalty weight (ps per gcell at 100% congestion).
constexpr double kCongestionPenaltyPs = 2.0;
// Detour growth: committed overflow inflates wirelength by up to this
// factor (maze-detour stand-in).
constexpr double kMaxDetour = 2.5;

// Nominal comparator driver resistance of the per-edge delay estimate.
constexpr double kDriveRKohm = 1.5;

const tech::BeolStack& stack_of(const tech::Tech3D& tech, int tier) {
  return tier == 0 ? tech.beol_bottom : tech.beol_top;
}

// Candidate (route_tier, layer_lo) of an edge from a terminal on `a_tier` to
// one on `b_tier`, with its via term.
EdgeCandidate make_candidate(const tech::Tech3D& tech, int a_tier, int b_tier, int route_tier,
                             int layer_lo, int f2f, bool shared) {
  const tech::BeolStack& stack = stack_of(tech, route_tier);
  EdgeCandidate c;
  c.route_tier = static_cast<std::uint8_t>(route_tier);
  c.layer_lo = static_cast<std::uint8_t>(layer_lo);
  c.f2f = static_cast<std::uint8_t>(f2f);
  c.shared = shared;
  const tech::MetalLayer& l0 = stack.layer(layer_lo);
  const tech::MetalLayer& l1 = stack.layer(layer_lo + 1);
  const bool h0 = l0.dir == tech::LayerDir::kHorizontal;
  const tech::MetalLayer& lh = h0 ? l0 : l1;
  const tech::MetalLayer& lv = h0 ? l1 : l0;
  c.hlayer = static_cast<std::uint8_t>(h0 ? layer_lo : layer_lo + 1);
  c.vlayer = static_cast<std::uint8_t>(h0 ? layer_lo + 1 : layer_lo);
  c.r_h = lh.r_ohm_per_um;
  c.r_v = lv.r_ohm_per_um;
  c.c_h = lh.c_ff_per_um;
  c.c_v = lv.c_ff_per_um;
  // Via stacks at both ends: from device level up to the pair.
  const tech::BeolStack& a_stack = stack_of(tech, a_tier);
  const tech::BeolStack& b_stack = stack_of(tech, b_tier);
  double via_r = 0.0, via_c = 0.0;
  auto add_stack = [&](const tech::BeolStack& s, int levels) {
    via_r += levels * s.via_r_ohm;
    via_c += levels * s.via_c_ff;
  };
  if (f2f == 0) {
    add_stack(stack, layer_lo + 1);
    add_stack(stack, layer_lo + 1);
  } else {
    // Each endpoint that is NOT on the routing tier climbs its own full
    // stack to the bond interface; endpoints on the routing tier climb
    // to the routing pair. (F2F bonding joins the two top layers.)
    const int to_pair = layer_lo + 1;
    const int a_levels = (a_tier == route_tier) ? to_pair : a_stack.num_layers() - 1;
    const int b_levels = (b_tier == route_tier) ? to_pair : b_stack.num_layers() - 1;
    add_stack(a_stack, a_levels);
    add_stack(b_stack, b_levels);
    // Hop(s) down from the bond interface to the routing pair on the
    // routing tier.
    const int down = stack.num_layers() - 1 - (layer_lo + 1);
    if (a_tier != route_tier || shared) add_stack(stack, std::max(down, 0));
  }
  c.via_r = via_r + f2f * tech.f2f.r_ohm;
  c.via_c = via_c + f2f * tech.f2f.c_ff;
  return c;
}

// The L every candidate of one edge shares: row gy1 over xs..xs+nh-1 on the
// candidate's hlayer, then column gx2 over ys..ys+nv-1 on its vlayer — the
// track cells for_each_cell() walks.
struct LShape {
  int xs, gy1, nh;
  int gx2, ys, nv;
};

// Prices the L of G candidates in one walk: per candidate the summed
// congestion (+ history) penalty and the max congestion seen. Each
// candidate's accumulators receive its cells in for_each_cell's order with
// the same operations, so the sums are the bits of a walk per candidate;
// the G dependent chains just run side by side.
template <int G>
void price_group(const RoutingGrid& grid, const float* history, const EdgeCandidate* c,
                 const LShape& l, double* penalty, double* max_over) {
  std::size_t h[G] = {}, v[G] = {};
  double pen[G] = {}, over[G] = {};
  for (int j = 0; j < G; ++j) {
    h[j] = grid.track_index(c[j].route_tier, c[j].hlayer, l.xs, l.gy1);
    v[j] = grid.track_index(c[j].route_tier, c[j].vlayer, l.gx2, l.ys);
  }
  auto cell = [&](int j, std::size_t i) {
    const double cong = grid.congestion_at(i);
    pen[j] += kCongestionPenaltyPs * cong * cong;
    if (history != nullptr) pen[j] += history[i];
    over[j] = std::max(over[j], cong);
  };
  for (int k = 0; k < l.nh; ++k)
    for (int j = 0; j < G; ++j) cell(j, h[j] + static_cast<std::size_t>(k));
  const auto nx = static_cast<std::size_t>(grid.nx());
  for (int k = 0; k < l.nv; ++k)
    for (int j = 0; j < G; ++j) cell(j, v[j] + static_cast<std::size_t>(k) * nx);
  for (int j = 0; j < G; ++j) {
    penalty[j] = pen[j];
    max_over[j] = over[j];
  }
}

}  // namespace

NetTopology build_net_topology(const netlist::Design& design, const tech::Tech3D& tech,
                               Id net_id) {
  const netlist::Netlist& nl = design.nl;
  const netlist::Net& net = nl.net(net_id);
  NetTopology t;
  if (net.driver == kNullId || net.sinks.empty()) return t;

  // ---- terminals: driver first, then sinks in pin order --------------------
  t.terms.reserve(net.sinks.size() + 1);
  {
    const netlist::CellInst& dc = nl.cell(nl.pin(net.driver).cell);
    t.terms.push_back(Terminal{dc.x_um, dc.y_um, dc.tier, 0.0f});
  }
  for (Id sp : net.sinks) {
    const netlist::CellInst& sc = nl.cell(nl.pin(sp).cell);
    const tech::Library& lib = (sc.tier == 0) ? tech.bottom : tech.top;
    t.terms.push_back(Terminal{sc.x_um, sc.y_um, sc.tier,
                               static_cast<float>(lib.cell(sc.kind).input_cap_ff)});
  }
  const std::size_t n = t.terms.size();

  // ---- driver-rooted spanning tree (Prim, Manhattan metric) ---------------
  t.parent.assign(n, -1);
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<bool> in_tree(n, false);
  best[0] = 0.0;
  for (std::size_t round = 0; round < n; ++round) {
    std::size_t u = n;
    double u_best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i)
      if (!in_tree[i] && best[i] < u_best) {
        u_best = best[i];
        u = i;
      }
    if (u == n) break;
    in_tree[u] = true;
    for (std::size_t v = 0; v < n; ++v) {
      if (in_tree[v]) continue;
      const double d =
          std::abs(t.terms[u].x - t.terms[v].x) + std::abs(t.terms[u].y - t.terms[v].y);
      if (d < best[v]) {
        best[v] = d;
        t.parent[v] = static_cast<int>(u);
      }
    }
  }
  return t;
}

CandidateTable::CandidateTable(const tech::Tech3D& tech) {
  for (int d = 0; d < 2; ++d) {
    Lists& l = by_driver[d];
    const int other = 1 - d;
    for (int lo = 1; lo + 1 < stack_of(tech, d).num_layers(); ++lo)
      l.native.push_back(make_candidate(tech, d, d, d, lo, 0, false));
    // Which tier carries a tier-changing wire is a choice; one F2F either way.
    for (int tier = 0; tier < 2; ++tier)
      for (int lo = 1; lo + 1 < stack_of(tech, tier).num_layers(); ++lo)
        l.cross_tier.push_back(make_candidate(tech, d, other, tier, lo, 1, false));
    const int top = stack_of(tech, other).num_layers() - 1;
    for (int k = 0; k < kSharedLayers; ++k) {
      const int lo = top - 1 - k;
      if (lo >= 1) l.shared.push_back(make_candidate(tech, d, d, other, lo, 2, true));
    }
  }
}

EdgeRoute route_edge(const EdgeCostModel& m, const Terminal& a, const Terminal& b,
                     bool mls) {
  EdgeRoute out;
  const RoutingGrid& grid = m.grid;
  const double g = grid.gcell_um();
  const double len = std::abs(a.x - b.x) + std::abs(a.y - b.y) + 0.5 * g;
  // Length split across a layer pair by orientation.
  const double len_h = std::abs(a.x - b.x) + 0.25 * g;
  const double len_v = std::abs(a.y - b.y) + 0.25 * g;
  const int gx1 = grid.gx(a.x), gy1 = grid.gy(a.y);
  const int gx2 = grid.gx(b.x), gy2 = grid.gy(b.y);
  out.gx1 = static_cast<std::uint16_t>(gx1);
  out.gy1 = static_cast<std::uint16_t>(gy1);
  out.gx2 = static_cast<std::uint16_t>(gx2);
  out.gy2 = static_cast<std::uint16_t>(gy2);

  const bool cross_tier = a.tier != b.tier;
  const bool force_shared = mls && !cross_tier && len >= kMinMlsEdgeUm;
  // Bond-pad congestion at both ends, charged to every candidate with F2F
  // vias.
  double f2f_penalty = 0.0;
  if (force_shared || cross_tier) {
    const double fc = grid.f2f_congestion(gx1, gy1) + grid.f2f_congestion(gx2, gy2);
    f2f_penalty = kCongestionPenaltyPs * 2.0 * fc * fc;
  }
  const LShape l{std::min(gx1, gx2), gy1, std::abs(gx1 - gx2) + 1,
                 gx2,                std::min(gy1, gy2), std::abs(gy1 - gy2) + 1};

  // Running minimum over the candidates in enumeration order; a later
  // candidate replaces it only when strictly cheaper, so ties keep the first.
  // The L is walked once per group of up to four candidates.
  const EdgeCandidate* pick = nullptr;
  double pick_cost = 0.0, pick_over = 0.0, pick_res = 0.0, pick_cap = 0.0;
  std::uint32_t count = 0;
  bool shared_fits = false;
  auto price = [&](const std::vector<EdgeCandidate>& list) {
    for (std::size_t at = 0; at < list.size(); at += 4) {
      const EdgeCandidate* c = list.data() + at;
      const std::size_t group = std::min<std::size_t>(4, list.size() - at);
      double penalty[4] = {}, max_over[4] = {};
      switch (group) {
        case 4: price_group<4>(grid, m.history, c, l, penalty, max_over); break;
        case 3: price_group<3>(grid, m.history, c, l, penalty, max_over); break;
        case 2: price_group<2>(grid, m.history, c, l, penalty, max_over); break;
        default: price_group<1>(grid, m.history, c, l, penalty, max_over); break;
      }
      for (std::size_t j = 0; j < group; ++j) {
        double res = len_h * c[j].r_h + len_v * c[j].r_v;
        double cap = len_h * c[j].c_h + len_v * c[j].c_v;
        res += c[j].via_r;
        cap += c[j].via_c;
        // Cost: Elmore-ish delay estimate + congestion penalties. kOhm*fF = ps.
        const double cost = 1e-3 * (kDriveRKohm * 1e3 * cap + res * (cap * 0.5 + 2.0)) +
                            penalty[j] + (c[j].f2f > 0 ? f2f_penalty : 0.0);
        if (max_over[j] < 1.0) shared_fits = true;
        if (count == 0 || cost < pick_cost) {
          pick = &c[j];
          pick_cost = cost;
          pick_over = max_over[j];
          pick_res = res;
          pick_cap = cap;
        }
        ++count;
      }
    }
  };

  const CandidateTable::Lists& lists = m.candidates.by_driver[a.tier];
  if (force_shared) {
    // Targeted routing: the edge uses the other tier's shared layers —
    // unless they are already full there, in which case a real router
    // falls back to native metal rather than overflowing the bond pads.
    price(lists.shared);
    if (!shared_fits) {
      out.fallback = true;
      count = 0;
      price(lists.native);
    }
  } else {
    price(cross_tier ? lists.cross_tier : lists.native);
  }
  out.candidates = count;
  if (count == 0) return out;

  // Detour inflation when the chosen route is through overfull regions.
  const double over = std::max(0.0, pick_over - 1.0);
  const double detour = std::min(kMaxDetour, 1.0 + 0.5 * over);

  out.routed = true;
  out.route_tier = pick->route_tier;
  out.layer_lo = pick->layer_lo;
  out.hlayer = pick->hlayer;
  out.vlayer = pick->vlayer;
  out.f2f = pick->f2f;
  out.shared = pick->shared;
  out.wl_um = static_cast<float>((len_h + len_v) * detour);
  out.res_ohm = static_cast<float>(pick_res * detour);
  out.cap_ff = static_cast<float>(pick_cap * detour);
  out.detour = static_cast<float>(detour);
  out.overflow = static_cast<float>(pick_over);
  return out;
}

void commit_edge(RoutingGrid& grid, const EdgeRoute& er, float amount) {
  for_each_cell(
      grid, er,
      [&](std::size_t i) {
        grid.add_usage_at(i, amount);
        return false;
      },
      [&](std::size_t i) {
        grid.add_f2f_at(i, amount);
        return false;
      });
}

NetRoute assemble_net_route(const netlist::Netlist& nl, Id net_id,
                            std::span<const Terminal> terms, std::span<const int> parent,
                            std::span<const EdgeRoute> edges) {
  const netlist::Net& net = nl.net(net_id);
  NetRoute out;
  out.sink_elmore_ps.assign(net.sinks.size(), 0.0f);
  if (terms.empty()) return out;
  const std::size_t n = terms.size();

  // Per-edge electrical results (post-detour), indexed by child terminal.
  std::vector<double> edge_res(n, 0.0), edge_cap(n, 0.0);
  for (std::size_t v = 1; v < n; ++v) {
    if (v - 1 >= edges.size()) break;
    const EdgeRoute& er = edges[v - 1];
    if (!er.routed) continue;
    edge_res[v] = er.res_ohm;
    edge_cap[v] = er.cap_ff;
    out.wl_um += er.wl_um;
    out.res_ohm += er.res_ohm;
    out.cap_ff += er.cap_ff;
    out.detour = std::max(out.detour, er.detour);
    out.worst_overflow = std::max(out.worst_overflow, er.overflow);
    out.layers_used[er.route_tier] |= static_cast<std::uint8_t>(0x3u << er.layer_lo);
    if (er.f2f > 0) {
      out.f2f_vias = static_cast<std::uint8_t>(std::min<int>(255, out.f2f_vias + er.f2f));
      if (er.shared) out.mls_applied = true;
    }
  }

  // cap_below[i] = capacitance of i's subtree (wire + pins). Accumulate
  // leaf-to-root in (depth desc, index asc) order — a total order, so the
  // floating-point accumulation sequence is deterministic.
  std::vector<int> depth(n, 0);
  for (std::size_t i = 1; i < n; ++i) {
    int d = 0;
    for (int p = static_cast<int>(i); parent[static_cast<std::size_t>(p)] >= 0;
         p = parent[static_cast<std::size_t>(p)])
      ++d;
    depth[i] = d;
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    const int dx = depth[static_cast<std::size_t>(x)], dy = depth[static_cast<std::size_t>(y)];
    if (dx != dy) return dx > dy;
    return x < y;
  });
  std::vector<double> cap_below(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) cap_below[i] = terms[i].pin_cap_ff;
  for (int i : order) {
    const int p = parent[static_cast<std::size_t>(i)];
    if (p < 0) continue;
    cap_below[static_cast<std::size_t>(p)] +=
        cap_below[static_cast<std::size_t>(i)] + edge_cap[static_cast<std::size_t>(i)];
  }

  // Elmore at node = sum over path edges of R_edge * (C_edge/2 + cap_below),
  // propagated root-to-leaf (depth asc, index asc).
  std::vector<double> elmore(n, 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int i = *it;
    const int p = parent[static_cast<std::size_t>(i)];
    if (p < 0) continue;
    const double r = edge_res[static_cast<std::size_t>(i)];
    const double c =
        edge_cap[static_cast<std::size_t>(i)] * 0.5 + cap_below[static_cast<std::size_t>(i)];
    elmore[static_cast<std::size_t>(i)] = elmore[static_cast<std::size_t>(p)] + 1e-3 * r * c;
  }
  for (std::size_t s = 0; s < net.sinks.size(); ++s)
    out.sink_elmore_ps[s] = static_cast<float>(elmore[s + 1]);
  out.load_ff = static_cast<float>(cap_below[0]);
  return out;
}

}  // namespace gnnmls::route
