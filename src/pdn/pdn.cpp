#include "pdn/pdn.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gnnmls::pdn {

namespace {

// Rescales a solved drop map by factor (the drop is linear in 1/strap width).
void scale_drop(IrDropResult& ir, double factor) {
  ir.max_drop_mv *= factor;
  ir.mean_drop_mv *= factor;
  ir.drop_pct_of_vdd *= factor;
  for (double& d : ir.node_drop_mv) d *= factor;
}

}  // namespace

std::vector<double> power_density_map(const netlist::Design& design, const tech::Tech3D& tech,
                                      const std::vector<route::NetRoute>& routes, int tier,
                                      int map_nx, int map_ny, const PowerOptions& options) {
  std::vector<double> map(static_cast<std::size_t>(map_nx) * map_ny, 0.0);
  const netlist::Netlist& nl = design.nl;
  const double f_ghz = 1000.0 / design.info.clock_ps;
  for (netlist::Id c = 0; c < nl.num_cells(); ++c) {
    const netlist::CellInst& cell = nl.cell(c);
    if (cell.tier != tier) continue;
    const tech::Library& lib = cell.tier == 0 ? tech.bottom : tech.top;
    const tech::CellType& type = lib.cell(cell.kind);
    double c_sw = type.input_cap_ff * cell.num_in;
    for (int o = 0; o < cell.num_out; ++o) {
      const netlist::Id net = nl.pin(nl.output_pin(c, o)).net;
      if (net != netlist::kNullId) c_sw += routes[net].load_ff;
    }
    double p_mw = (options.activity * c_sw * lib.vdd() * lib.vdd() * f_ghz + type.leakage_uw) * 1e-3;
    if (cell.kind == tech::CellKind::kSramMacro) {
      const double scale = lib.node() == tech::Node::kN16 ? 0.55 : 1.0;
      p_mw += options.activity * options.sram_access_energy_pj * scale * f_ghz;
    }
    const int x = std::clamp(static_cast<int>(cell.x_um / design.info.die_w_um * map_nx), 0,
                             map_nx - 1);
    const int y = std::clamp(static_cast<int>(cell.y_um / design.info.die_h_um * map_ny), 0,
                             map_ny - 1);
    map[static_cast<std::size_t>(y) * map_nx + x] += p_mw;
  }
  return map;
}

PdnDesign synthesize_pdn(const netlist::Design& design, const tech::Tech3D& tech,
                         const std::vector<route::NetRoute>& routes, const PdnOptions& options) {
  GNNMLS_SPAN("pdn.synthesize");
  PdnDesign out;
  const double vdd_min = tech.vdd_min();
  const int map_nx = 48, map_ny = 48;
  for (int tier = 0; tier < 2; ++tier) {
    const std::vector<double> pmap =
        power_density_map(design, tech, routes, tier, map_nx, map_ny);
    const double vdd = tier == 0 ? tech.vdd_bottom() : tech.vdd_top();
    PdnGridSpec spec;
    spec.die_w_um = design.info.die_w_um;
    spec.die_h_um = design.info.die_h_um;
    spec.strap_pitch_um = options.strap_pitch_um;
    spec.vdd = vdd;
    // Sheet resistance of the tier's top metal.
    const tech::BeolStack& stack = tier == 0 ? tech.beol_bottom : tech.beol_top;
    const tech::MetalLayer& top = stack.layer(stack.top());
    spec.sheet_r_ohm = top.r_ohm_per_um * top.width_um;  // Ohm/um * um = Ohm/sq

    // One solve at the narrowest strap; the drop scales exactly as
    // 1/width = 1/(U·pitch), so every step of the sweep is closed form.
    spec.strap_width_um = options.min_utilization * spec.strap_pitch_um;
    IrDropResult ir = solve_ir_drop(spec, pmap, map_nx, map_ny);
    // Budget is expressed against the lowest VDD in the stack (Table IV).
    const double budget_mv = options.ir_budget_pct * 0.01 * vdd_min * 1e3;
    double util = options.min_utilization;
    while (util <= options.max_utilization + 1e-9 &&
           ir.max_drop_mv * (options.min_utilization / util) > budget_mv)
      util += 0.02;
    util = std::min(util, options.max_utilization);
    scale_drop(ir, options.min_utilization / util);
    out.strap_width_um[tier] = util * spec.strap_pitch_um;
    out.strap_pitch_um[tier] = spec.strap_pitch_um;
    out.utilization[tier] = util;
    out.worst_ir_pct = std::max(out.worst_ir_pct, ir.max_drop_mv / (vdd_min * 1e3) * 100.0);
    out.ir[tier] = std::move(ir);
    util::log_debug("pdn tier ", tier, ": U=", util, " drop ", out.ir[tier].max_drop_mv, " mV");
  }
  return out;
}

}  // namespace gnnmls::pdn
