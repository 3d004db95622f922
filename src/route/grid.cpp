#include "route/grid.hpp"

#include <algorithm>
#include <cmath>

namespace gnnmls::route {

RoutingGrid::RoutingGrid(double die_w_um, double die_h_um, const tech::Tech3D& tech) {
  nx_ = std::max(1, static_cast<int>(std::ceil(die_w_um / kGcellUm)));
  ny_ = std::max(1, static_cast<int>(std::ceil(die_h_um / kGcellUm)));
  layers_[0] = tech.beol_bottom.num_layers();
  layers_[1] = tech.beol_top.num_layers();
  max_layers_ = std::max(layers_[0], layers_[1]);
  const std::size_t cells = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  cap_.assign(2 * static_cast<std::size_t>(max_layers_) * cells, 0.0f);
  use_.assign(cap_.size(), 0.0f);
  f2f_use_.assign(cells, 0.0f);
  // Pad array: (gcell / pitch)^2 pads per gcell, halved for keep-out.
  const double pads_1d = kGcellUm / tech.f2f.pitch_um;
  f2f_cap_ = static_cast<float>(0.5 * pads_1d * pads_1d);

  for (int tier = 0; tier < 2; ++tier) {
    const tech::BeolStack& stack = (tier == 0) ? tech.beol_bottom : tech.beol_top;
    for (int layer = 0; layer < stack.num_layers(); ++layer) {
      // Tracks crossing a gcell in the preferred direction. M1 is mostly
      // consumed by cell-internal routing, so it contributes little.
      double tracks = kGcellUm / stack.layer(layer).pitch_um;
      if (layer == 0) tracks *= 0.15;
      else if (layer == 1) tracks *= 0.70;
      const float t = static_cast<float>(tracks);
      for (int y = 0; y < ny_; ++y)
        for (int x = 0; x < nx_; ++x) cap_[idx(tier, layer, x, y)] = t;
    }
  }
}

double RoutingGrid::f2f_congestion(int x, int y) const {
  return f2f_use_[idx2(x, y)] / std::max(f2f_cap_, 0.25f);
}

void RoutingGrid::reserve_layer_fraction(int tier, int layer, double fraction) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  if (layer < 0 || layer >= layers_[tier]) return;
  for (int y = 0; y < ny_; ++y)
    for (int x = 0; x < nx_; ++x)
      cap_[idx(tier, layer, x, y)] *= static_cast<float>(1.0 - fraction);
}

RoutingGrid::Census RoutingGrid::census() const {
  Census c;
  double sum = 0.0;
  std::size_t used = 0;
  for (int tier = 0; tier < 2; ++tier) {
    for (int layer = 0; layer < layers_[tier]; ++layer) {
      for (int y = 0; y < ny_; ++y) {
        for (int x = 0; x < nx_; ++x) {
          const float u = use_[idx(tier, layer, x, y)];
          if (u <= 0.0f) continue;
          const double cong = congestion(tier, layer, x, y);
          sum += cong;
          ++used;
          c.max_congestion = std::max(c.max_congestion, cong);
          if (u > cap_[idx(tier, layer, x, y)]) ++c.overflow_gcells;
        }
      }
    }
  }
  if (used > 0) c.mean_congestion = sum / static_cast<double>(used);
  for (int y = 0; y < ny_; ++y)
    for (int x = 0; x < nx_; ++x)
      if (f2f_use_[idx2(x, y)] > f2f_cap_) ++c.f2f_overflow_gcells;
  return c;
}

void RoutingGrid::clear_usage() {
  std::fill(use_.begin(), use_.end(), 0.0f);
  std::fill(f2f_use_.begin(), f2f_use_.end(), 0.0f);
}

}  // namespace gnnmls::route
