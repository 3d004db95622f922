// Mixed-node deep dive: walk the heterogeneous integration pieces the paper
// adds around GNN-MLS — level shifters between the 0.9 V memory and 0.81 V
// logic domains, the per-tier PDN sizing loop, and the IR-drop map
// (Section III-E / Figure 7 / Figure 9).
#include <cstdio>

#include <string>

#include "floorplan/tier.hpp"
#include "flow/pass_manager.hpp"
#include "mls/flow.hpp"
#include "pdn/irdrop.hpp"
#include "util/log.hpp"

using namespace gnnmls;

int main() {
  util::set_log_level(util::LogLevel::kInfo);

  netlist::Design design = netlist::make_maeri_128pe();
  const auto crossings = floorplan::count_crossings(design.nl);
  std::printf("3D connectivity before flow: %zu 3D nets, %zu crossings (%zu up / %zu down)\n",
              crossings.nets_3d, crossings.crossings, crossings.up, crossings.down);

  mls::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.pdn.strap_pitch_um = 7.0;  // paper Table IV, MAERI column
  mls::DesignFlow flow(std::move(design), cfg);
  const mls::FlowMetrics m = flow.evaluate_no_mls();

  std::printf("\npower: %.1f mW total, of which level shifters %.1f mW (%.1f%%)\n", m.power_mw,
              m.ls_power_mw, 100.0 * m.ls_power_mw / m.power_mw);

  const pdn::PdnDesign* pdn = flow.pdn_design();
  if (pdn != nullptr) {
    for (int tier = 0; tier < 2; ++tier) {
      std::printf("tier %d PDN: strap %.2f um wide on a %.0f um pitch (U=%.0f%%), "
                  "peak drop %.1f mV\n",
                  tier, pdn->strap_width_um[tier], pdn->strap_pitch_um[tier],
                  pdn->utilization[tier] * 100.0, pdn->ir[tier].max_drop_mv);
    }
    std::printf("\nmemory-die IR-drop map:\n%s", pdn::render_drop_map(pdn->ir[1], 40).c_str());
    std::printf("worst-case IR drop: %.2f%% of the 0.81 V domain (budget 10%%)\n",
                pdn->worst_ir_pct);
  }

  // The voltage-domain bookkeeping the level shifters implement.
  std::printf("\nvoltage domains: top die %.2f V, bottom die %.2f V (level-shifted)\n",
              flow.tech().vdd_top(), flow.tech().vdd_bottom());

  // ECO: dirty a single net and re-evaluate. The pass manager sees only the
  // routes (and everything downstream of them) go stale, so the router takes
  // the incremental path and the analysis passes re-run in one wave
  // — no full rebuild, identical code path to the cold run above.
  flow.db().touch_net(0);
  const mls::FlowMetrics eco = flow.evaluate_no_mls();
  const flow::RunReport& report = flow.last_run_report();
  std::string order;
  for (std::size_t i = 0; i < report.executed.size(); ++i) {
    const flow::PassExecution& p = report.executed[i];
    if (i > 0) order += report.executed[i - 1].wave == p.wave ? " || " : " -> ";
    order += p.name;
  }
  std::printf("\nECO after touching net 0: re-ran %zu of %zu passes in %zu waves (%s)\n",
              report.executed.size(), report.executed.size() + report.skipped.size(),
              report.waves, order.c_str());
  std::printf("ECO route time %.3f ms (vs %.3f ms cold), WNS unchanged at %.1f ps\n",
              1e3 * eco.route_s, 1e3 * m.route_s, eco.wns_ps);
  return 0;
}
