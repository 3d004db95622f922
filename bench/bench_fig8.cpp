// Figure 8: timing-metric comparison across benchmarks — the bar-chart view
// of Tables IV/V. Printed as normalized series (No MLS = 1.0) for WNS, TNS
// and violating-path count, plus ASCII bars.
#include <algorithm>
#include <cmath>

#include "common.hpp"

using namespace gnnmls;
using namespace gnnmls::mls;

namespace {

void bars(const char* label, double none, double sota, double gnn) {
  const double base = std::max(none, 1e-12);
  const double n_none = none / base, n_sota = sota / base, n_gnn = gnn / base;
  // Scale by the longest drawn (normalized) bar, so none exceeds 40 chars.
  const double mx = std::max({n_none, n_sota, n_gnn, 1e-12});
  auto bar = [&](const char* name, double v) {
    std::printf("    %-8s |", name);
    const int n = static_cast<int>(40.0 * v / mx);
    for (int i = 0; i < n; ++i) std::printf("#");
    std::printf(" %.2f\n", v);
  };
  std::printf("  %s (lower is better, normalized to No MLS):\n", label);
  bar("No MLS", n_none);
  bar("SOTA", n_sota);
  bar("GNN-MLS", n_gnn);
}

void run(const char* name, netlist::Design design, bool hetero, GnnMlsEngine& engine) {
  FlowConfig cfg;
  cfg.heterogeneous = hetero;
  cfg.run_pdn = false;
  DesignFlow flow(std::move(design), cfg);
  const FlowMetrics none = flow.evaluate_no_mls();
  const FlowMetrics sota = flow.evaluate_sota();
  const FlowMetrics gnn = flow.evaluate_gnn(engine);
  std::printf("\n--- %s (%s) ---\n", name, hetero ? "hetero" : "homo");
  bars("|WNS|", -none.wns_ps, -sota.wns_ps, -gnn.wns_ps);
  bars("|TNS|", -none.tns_ns, -sota.tns_ns, -gnn.tns_ns);
  bars("#Vio", static_cast<double>(none.violating), static_cast<double>(sota.violating),
       static_cast<double>(gnn.violating));
}

}  // namespace

int main() {
  util::set_log_level(util::LogLevel::kWarn);
  bench::print_header("Figure 8", "timing metric comparison across benchmarks");

  FlowConfig hetero_cfg;
  hetero_cfg.heterogeneous = true;
  hetero_cfg.run_pdn = false;
  DesignFlow t1(netlist::make_maeri_128pe(), hetero_cfg);
  DesignFlow t2(netlist::make_a7_single_core(), hetero_cfg);
  auto trained = bench::train_bench_engine({&t1, &t2}, 300);

  run("MAERI 128PE", netlist::make_maeri_128pe(), true, *trained.engine);
  run("A7 Dual-Core", netlist::make_a7_dual_core(), true, *trained.engine);
  run("MAERI 256PE", netlist::make_maeri_256pe(), false, *trained.engine);
  run("A7 Dual-Core", netlist::make_a7_dual_core(), false, *trained.engine);
  bench::note("\nShape target (paper Fig. 8): GNN-MLS bars shortest on every benchmark.");
  return 0;
}
