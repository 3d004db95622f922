// Section II-A motivation: "in the MAERI architecture with 16PE, MLS
// improves critical path slack from -76 ps without MLS to -18 ps with
// selective MLS."
//
// We rebuild the experiment on the synthetic 16PE 4BW design: the oracle's
// selective MLS (the ideal the GNN approximates) against the no-MLS
// sequential-2D flow, reporting critical-path slack for both. The design
// clock is tightened to 0.75x: at the generator's default the no-MLS flow
// already meets timing on this small design, leaving MLS nothing to fix
// (FlowIntegration.OracleMlsImprovesTiming uses the same setting).
#include "common.hpp"

using namespace gnnmls;
using namespace gnnmls::mls;

int main() {
  util::set_log_level(util::LogLevel::kWarn);
  bench::print_header("Motivation (Sec. II-A)", "selective MLS on MAERI 16PE");

  FlowConfig cfg;
  cfg.heterogeneous = true;
  netlist::Design design = netlist::make_maeri_16pe();
  const double default_clock_ps = design.info.clock_ps;
  design.info.clock_ps *= 0.75;
  std::printf("clock: %.1f ps (0.75x the design's %.1f ps)\n", design.info.clock_ps,
              default_clock_ps);
  DesignFlow flow(std::move(design), cfg);
  const FlowMetrics base = flow.evaluate_no_mls();

  // Oracle-selective MLS over all critical and near-critical paths.
  CorpusOptions co;
  co.max_paths = 4000;
  co.include_near_critical = true;
  co.margin_ps = 60.0;
  co.attach_labels = true;
  const Corpus corpus = flow.corpus(co);
  std::vector<std::uint8_t> flags(flow.design().nl.num_nets(), 0);
  for (const auto& g : corpus.graphs)
    for (std::size_t i = 0; i < g.labels.size(); ++i)
      if (g.labels[i] == 1 && g.net_ids[i] != netlist::kNullId) flags[g.net_ids[i]] = 1;
  const FlowMetrics shared = flow.evaluate(flags, Strategy::kGnn);

  util::Table t({"Flow", "critical slack (ps)", "#Vio", "#MLS nets"});
  t.add_row({"No MLS (paper)", "-76", "-", "0"});
  t.add_row({"Selective MLS (paper)", "-18", "-", "-"});
  t.add_row({"No MLS (measured)", bench::fmt1(base.wns_ps),
             util::fmt_count(static_cast<long long>(base.violating)), "0"});
  t.add_row({"Selective MLS (measured)", bench::fmt1(shared.wns_ps),
             util::fmt_count(static_cast<long long>(shared.violating)),
             util::fmt_count(static_cast<long long>(shared.mls_nets))});
  t.print();
  bench::note("Shape target: selective MLS recovers most of the negative slack.");
  if (base.wns_ps < 0.0)
    std::printf("Measured: selective MLS recovers %.0f%% of the no-MLS negative slack.\n",
                100.0 * (shared.wns_ps - base.wns_ps) / -base.wns_ps);
  return 0;
}
