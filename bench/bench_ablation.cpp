// Ablation study (beyond the paper's tables, motivated by its design
// choices): what does each GNN-MLS ingredient contribute?
//   * DGI pretraining (Algorithm 1, lines 1-6)
//   * the adjacency bias (the "graph" in graph transformer)
//   * the trial-verification guard in the decision stage
// Measured as label accuracy on a held-out split plus flow-level results.
#include "common.hpp"

using namespace gnnmls;
using namespace gnnmls::mls;

int main() {
  util::set_log_level(util::LogLevel::kWarn);
  bench::print_header("Ablation", "GNN-MLS ingredient contributions (hetero MAERI 128PE)");

  FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = false;
  DesignFlow flow(netlist::make_maeri_128pe(), cfg);
  DesignFlow aux(netlist::make_a7_single_core(), cfg);

  // Build the labeled corpus once.
  std::vector<ml::PathGraph> pooled;
  for (DesignFlow* f : {&flow, &aux}) {
    f->evaluate_no_mls();
    CorpusOptions co;
    co.max_paths = 400;
    co.include_near_critical = true;
    co.attach_labels = true;
    const Corpus c = f->corpus(co);
    for (const auto& g : c.graphs) pooled.push_back(g);
  }
  std::printf("corpus: %zu labeled paths\n", pooled.size());

  util::Table t({"Variant", "val acc", "val F1", "#MLS", "WNS(ps)", "#Vio"});
  const FlowMetrics base = flow.evaluate_no_mls();
  t.add_row({"No MLS baseline", "-", "-", "0", bench::fmt1(base.wns_ps),
             util::fmt_count(static_cast<long long>(base.violating))});

  struct Variant {
    const char* name;
    bool dgi;
    bool guard;
  };
  const Variant variants[] = {
      {"full GNN-MLS", true, true},
      {"no DGI pretraining", false, true},
      {"no trial guard", true, false},
  };
  // Val F1 of the full model and of the one without DGI, for the Reading.
  double f1_full = 0.0, f1_no_dgi = 0.0;
  for (const Variant& v : variants) {
    GnnMlsConfig ecfg = bench::bench_engine_config();
    ecfg.verify_with_trial = v.guard;
    // Zero DGI epochs: pretrain() then only fits the feature scaler.
    if (!v.dgi) ecfg.dgi.epochs = 0;
    GnnMlsEngine engine(ecfg);
    engine.pretrain(pooled);
    const TrainReport report = engine.fine_tune(pooled);
    if (v.dgi && v.guard) f1_full = report.val_metrics.f1;
    if (!v.dgi) f1_no_dgi = report.val_metrics.f1;
    flow.evaluate_no_mls();
    const FlowMetrics m = flow.evaluate_gnn(engine);
    t.add_row({v.name, bench::fmt2(report.val_metrics.accuracy),
               bench::fmt2(report.val_metrics.f1),
               util::fmt_count(static_cast<long long>(m.mls_nets)), bench::fmt1(m.wns_ps),
               util::fmt_count(static_cast<long long>(m.violating))});
  }
  t.print();
  const char* dgi_verdict = f1_full > f1_no_dgi   ? "the full model scored higher"
                            : f1_full < f1_no_dgi ? "the model without DGI scored higher"
                                                  : "both scored the same";
  std::printf("\nReading: at equal labels %s on val F1 (full %s, no DGI %s);\n", dgi_verdict,
              bench::fmt2(f1_full).c_str(), bench::fmt2(f1_no_dgi).c_str());
  bench::note("the trial guard protects the flow from model false positives.");
  return 0;
}
