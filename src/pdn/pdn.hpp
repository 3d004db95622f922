// PDN synthesis for the mixed-node stack (paper Section III-E, Figure 7).
//
// Power domains: the top (memory) die runs at 0.9 V; in the heterogeneous
// stack the bottom (logic) die is a 0.81 V sub-domain behind level shifters.
// The PDN is sized per tier: straps on the top metal layer at width W and
// pitch P, chosen as the smallest utilization U = W/P whose worst IR drop
// stays within the budget (10% of the lowest VDD, Table IV). Whatever
// fraction of the top layer the PDN takes is subtracted from the router's
// signal capacity — the resource the MLS nets compete for.
#pragma once

#include "netlist/generators.hpp"
#include "pdn/irdrop.hpp"
#include "pdn/power.hpp"
#include "route/router.hpp"
#include "tech/tech.hpp"

namespace gnnmls::pdn {

struct PdnOptions {
  double ir_budget_pct = 10.0;  // of the lowest VDD
  double min_utilization = 0.08;
  double max_utilization = 0.45;
  double strap_pitch_um = 7.0;  // Table IV: 7 um (MAERI) / 9 um (A7)
};

struct PdnDesign {
  // Per tier (0 bottom, 1 top).
  double strap_width_um[2] = {0.0, 0.0};
  double strap_pitch_um[2] = {7.0, 7.0};
  double utilization[2] = {0.0, 0.0};
  IrDropResult ir[2];
  double worst_ir_pct = 0.0;  // of lowest VDD
};

// Builds a per-tier power density map from placed cells (for IR injection).
std::vector<double> power_density_map(const netlist::Design& design, const tech::Tech3D& tech,
                                      const std::vector<route::NetRoute>& routes, int tier,
                                      int map_nx, int map_ny, const PowerOptions& options = {});

// Sizes the PDN per tier so IR drop meets the budget, starting from
// min_utilization and widening straps in 0.02 steps until it fits (or
// max_utilization). Each tier takes one IR solve: the drop at any other U is
// that solve scaled by min_utilization/U, and ir[tier] is reported at the U
// recorded in utilization[tier].
PdnDesign synthesize_pdn(const netlist::Design& design, const tech::Tech3D& tech,
                         const std::vector<route::NetRoute>& routes,
                         const PdnOptions& options = {});

}  // namespace gnnmls::pdn
