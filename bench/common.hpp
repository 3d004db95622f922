// Shared helpers for the bench binaries.
//
// Every bench reproduces one table or figure from the paper. To keep the
// whole suite runnable in minutes, benches share one training recipe
// (smaller than the library defaults but the same architecture) and a
// common "paper vs measured" table style.
#pragma once

#include <cstdio>
#include <string>

#include "mls/flow.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace gnnmls::bench {

// Paper-fidelity model (3 layers, 3 heads) with a bench-friendly budget.
inline mls::GnnMlsConfig bench_engine_config() {
  mls::GnnMlsConfig cfg;
  cfg.dgi.epochs = 6;
  cfg.fine_tune.epochs = 30;
  return cfg;
}

// Trains one engine the way the paper describes (Section II-B): pooled
// paths from hetero + homo training configurations. The evaluation designs
// (dual-core A7, 256PE) stay out of the training pool.
inline mls::TrainedEngine train_bench_engine(std::vector<mls::DesignFlow*> flows,
                                             int paths_per_design = 400) {
  return mls::train_engine_on(flows, bench_engine_config(), paths_per_design);
}

inline std::string fmt1(double v) { return util::fmt_fixed(v, 1); }
inline std::string fmt2(double v) { return util::fmt_fixed(v, 2); }

inline void print_header(const char* id, const char* title) {
  // GNNMLS_TRACE=out.json turns any bench run into a Chrome trace.
  obs::init_from_env();
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("================================================================\n");
}

// One row of a PPA table in the paper's layout.
// RT reads "reused" when the row's evaluate ran no pass (every stage was
// already fresh, e.g. a baseline that training built): its runtime_s is only
// the scheduling walk, not the cost of the row.
inline void add_ppa_rows(util::Table& t, const mls::FlowMetrics& m) {
  t.add_row({m.design, m.strategy, fmt2(m.wl_m), fmt1(m.wns_ps), fmt2(m.tns_ns),
             util::fmt_count(static_cast<long long>(m.violating)),
             util::fmt_count(static_cast<long long>(m.mls_nets)), fmt1(m.power_mw),
             fmt1(m.ls_power_mw), fmt1(m.ir_drop_pct), fmt1(m.eff_freq_mhz),
             m.stage_sum_s() == 0.0 ? "reused" : fmt1(m.runtime_s) + "s"});
}

inline util::Table ppa_table() {
  return util::Table({"Design", "Flow", "WL(m)", "WNS(ps)", "TNS(ns)", "#Vio", "#MLS",
                      "Pwr(mW)", "LS(mW)", "IR(%)", "EffFq(MHz)", "RT"});
}

inline void note(const char* text) { std::printf("%s\n", text); }

}  // namespace gnnmls::bench
