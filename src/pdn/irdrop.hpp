// Static IR-drop analysis over a resistive PDN grid.
//
// The PDN is a mesh of straps on each tier's top two layers: one layer of
// horizontal straps, one of vertical, via-stitched at every crossing. The
// solver builds one node per crossing, injects each gcell's load current at
// the nearest node, clamps boundary nodes (pad ring / bump array at the die
// edge) to VDD, and solves the DC operating point exactly with a 2-D
// discrete sine transform (the grid's eigenbasis). Output is the worst-case
// drop and a coarse drop map (paper Figure 9(a)). Every segment conductance
// is proportional to the strap width, so the drop scales exactly as
// 1/strap_width_um.
#pragma once

#include <vector>

#include "tech/tech.hpp"

namespace gnnmls::pdn {

struct PdnGridSpec {
  double die_w_um = 600.0;
  double die_h_um = 600.0;
  double strap_width_um = 2.0;
  double strap_pitch_um = 7.0;
  // Sheet resistance of the strap metal (Ohm/square).
  double sheet_r_ohm = 0.03;
  double vdd = 0.9;
};

struct IrDropResult {
  double max_drop_mv = 0.0;
  double mean_drop_mv = 0.0;
  double drop_pct_of_vdd = 0.0;
  int grid_nx = 0, grid_ny = 0;
  std::vector<double> node_drop_mv;  // row-major ny x nx map
};

// power_map_mw: row-major map_ny x map_nx of load power per region; it is
// resampled onto the PDN node grid internally.
IrDropResult solve_ir_drop(const PdnGridSpec& spec, const std::vector<double>& power_map_mw,
                           int map_nx, int map_ny);

// Renders the drop map as an ASCII heatmap (Figure 9(a) stand-in).
std::string render_drop_map(const IrDropResult& result, int target_cols = 32);

}  // namespace gnnmls::pdn
