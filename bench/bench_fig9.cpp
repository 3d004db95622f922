// Figure 9: (a) IR-drop map of the heterogeneous MAERI 128PE (paper: 92 mV
// peak = 10% of 0.9 V supply on the memory die, A7 at ~2%), (b/c) top-metal
// sharing between the PDN and signal/MLS routing.
#include "common.hpp"
#include "pdn/irdrop.hpp"

using namespace gnnmls;
using namespace gnnmls::mls;

namespace {

void run(const char* name, netlist::Design design, double pitch_um) {
  FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.pdn.strap_pitch_um = pitch_um;
  DesignFlow flow(std::move(design), cfg);
  flow.evaluate_no_mls();
  const pdn::PdnDesign* pdn = flow.pdn_design();
  if (pdn == nullptr) return;

  std::printf("\n--- %s ---\n", name);
  for (int tier = 0; tier < 2; ++tier) {
    const auto& ir = pdn->ir[tier];
    std::printf("  tier %d (%s): peak IR drop %.1f mV (%.2f%% of lowest VDD), U=%.0f%%\n", tier,
                tier == 0 ? "logic" : "memory", ir.max_drop_mv,
                ir.max_drop_mv / (flow.tech().vdd_min() * 1e3) * 100.0,
                pdn->utilization[tier] * 100.0);
  }
  std::printf("  memory-die IR-drop map (darker = larger drop):\n%s",
              pdn::render_drop_map(pdn->ir[1], 48).c_str());

  // (b/c): top-layer budget split between PDN and signal/MLS usage. The
  // router reserves fixed RouterOptions fractions; the PDN picks its strap
  // utilization U afterwards, so the two are printed side by side.
  const auto& grid = flow.router().grid();
  for (int tier = 0; tier < 2; ++tier) {
    const int top = grid.num_layers(tier) - 1;
    double cap = 0.0, used = 0.0;
    for (int y = 0; y < grid.ny(); ++y)
      for (int x = 0; x < grid.nx(); ++x) {
        cap += grid.capacity(tier, top, x, y);
        used += grid.usage(tier, top, x, y);
      }
    std::printf(
        "  tier %d top metal: router's fixed PDN+CTS reservation %.0f%% (PDN chose U=%.0f%%), "
        "signal usage %.0f%% of leftover\n",
        tier,
        100.0 * flow.config().router.pdn_top_fraction[tier] +
            100.0 * flow.config().router.cts_top_fraction,
        pdn->utilization[tier] * 100.0, cap > 0 ? 100.0 * used / cap : 0.0);
  }
}

}  // namespace

int main() {
  util::set_log_level(util::LogLevel::kWarn);
  bench::print_header("Figure 9", "PDN IR-drop and top-metal sharing (hetero)");
  run("MAERI 128PE (paper: 92 mV peak, 10% IR)", netlist::make_maeri_128pe(), 7.0);
  run("A7 Dual-Core (paper: ~2% IR)", netlist::make_a7_dual_core(), 9.0);
  bench::note("\nShape target: IR drop within the 10% budget of the 0.81 V domain; top");
  bench::note("metal shared between PDN straps and MLS/2D signal routing.");
  return 0;
}
