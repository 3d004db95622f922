// Microbenchmarks (google-benchmark): throughput of the substrate pieces
// the flow iterates — routing, STA, what-if trials, transformer passes, and
// fault simulation. These back the paper's runtime discussion (Table IV
// reports 15-35 minute GNN-MLS runtimes on commercial tooling; our substrate
// turns the full flow around in seconds).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <vector>

#include "dft/faults.hpp"
#include "ml/dgi.hpp"
#include "ml/engine.hpp"
#include "ml/kernels.hpp"
#include "ml/mlp.hpp"
#include "mls/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

using namespace gnnmls;

namespace {

struct FlowState {
  FlowState() {
    util::set_log_level(util::LogLevel::kError);
    obs::init_from_env();  // GNNMLS_TRACE=out.json traces the whole bench run
    mls::FlowConfig cfg;
    cfg.heterogeneous = true;
    cfg.run_pdn = false;
    flow = std::make_unique<mls::DesignFlow>(netlist::make_maeri_16pe(), cfg);
    flow->evaluate_no_mls();
  }
  std::unique_ptr<mls::DesignFlow> flow;
};

FlowState& state() {
  static FlowState s;
  return s;
}

void BM_RouteAll(benchmark::State& st) {
  auto& f = *state().flow;
  for (auto _ : st) {
    benchmark::DoNotOptimize(f.router().route_all({}));
  }
  st.counters["nets/s"] = benchmark::Counter(
      static_cast<double>(f.design().nl.num_nets()) * static_cast<double>(st.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RouteAll)->Unit(benchmark::kMillisecond);

// The negotiated engine on a fresh router: ci.sh's perf-smoke keeps the row
// in BENCH_routing.json for its nets/s and its final overflow (ROADMAP
// item 2 gates the maeri16 overflow).
void BM_RouteNegotiated(benchmark::State& st) {
  auto& f = *state().flow;
  route::Router router(f.design(), f.tech());
  std::size_t overflow = 0;
  for (auto _ : st) {
    const route::RouteSummary rs = router.route_all({});
    overflow = rs.census.overflow_gcells + rs.census.f2f_overflow_gcells;
    benchmark::ClobberMemory();
  }
  st.counters["nets/s"] = benchmark::Counter(
      static_cast<double>(f.design().nl.num_nets()) * static_cast<double>(st.iterations()),
      benchmark::Counter::kIsRate);
  st.counters["overflow"] = static_cast<double>(overflow);
}
BENCHMARK(BM_RouteNegotiated)->Unit(benchmark::kMillisecond);

// route_all on a paper-scale design: the placed dual-core A7 (about 39k
// 2-pin edges, 8+8 metal layers), no MLS, no PDN. A router change is judged
// here, not on MAERI-16 alone; ci.sh leaves it out of its gates.
void BM_RoutePaperScale(benchmark::State& st) {
  static const std::unique_ptr<mls::DesignFlow> flow = [] {
    util::set_log_level(util::LogLevel::kError);
    mls::FlowConfig cfg;
    cfg.heterogeneous = true;
    cfg.run_pdn = false;
    auto f = std::make_unique<mls::DesignFlow>(netlist::make_a7_dual_core(), cfg);
    f->evaluate_no_mls();
    return f;
  }();
  route::Router& router = flow->router();
  for (auto _ : st) benchmark::DoNotOptimize(router.route_all({}));
  std::size_t edges = 0;
  for (netlist::Id n = 0; n < flow->design().nl.num_nets(); ++n)
    edges += router.net_edges(n).size();
  st.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(edges) * static_cast<double>(st.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RoutePaperScale)->Unit(benchmark::kMillisecond);

void BM_StaFullRun(benchmark::State& st) {
  auto& f = *state().flow;
  for (auto _ : st) benchmark::DoNotOptimize(f.sta().run(400.0, 40.0));
  st.counters["pins/s"] = benchmark::Counter(
      static_cast<double>(f.design().nl.num_pins()) * static_cast<double>(st.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StaFullRun)->Unit(benchmark::kMillisecond);

// Dirty-net set for the ECO reroute case: a spread of mid-sized nets, the
// shape of what a DFT insertion or local ECO touches.
std::vector<netlist::Id> pick_dirty_nets(const netlist::Netlist& nl, std::size_t count) {
  std::vector<netlist::Id> dirty;
  for (netlist::Id n = 0; n < nl.num_nets() && dirty.size() < count; ++n)
    if (nl.net_hpwl_um(n) > 50.0) dirty.push_back(n);
  return dirty;
}

void BM_RerouteEco(benchmark::State& st) {
  auto& f = *state().flow;
  f.router().route_all({});
  const std::vector<netlist::Id> dirty =
      pick_dirty_nets(f.design().nl, static_cast<std::size_t>(st.range(0)));
  for (auto _ : st)
    benchmark::DoNotOptimize(f.router().reroute_nets(dirty, {}));
  st.counters["nets/s"] = benchmark::Counter(
      static_cast<double>(dirty.size()) * static_cast<double>(st.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RerouteEco)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_TrialRoute(benchmark::State& st) {
  auto& f = *state().flow;
  // Pick a mid-sized net.
  netlist::Id target = 0;
  for (netlist::Id n = 0; n < f.design().nl.num_nets(); ++n)
    if (f.design().nl.net_hpwl_um(n) > 100.0) {
      target = n;
      break;
    }
  for (auto _ : st) benchmark::DoNotOptimize(f.router().trial_route(target, true));
}
BENCHMARK(BM_TrialRoute)->Unit(benchmark::kMicrosecond);

void BM_PathExtraction(benchmark::State& st) {
  auto& f = *state().flow;
  f.sta().run(250.0, 40.0);  // force a violating population
  sta::PathExtractOptions opt;
  opt.max_paths = 200;
  for (auto _ : st) benchmark::DoNotOptimize(sta::extract_paths(f.sta(), opt));
}
BENCHMARK(BM_PathExtraction)->Unit(benchmark::kMillisecond);

void BM_TransformerForward(benchmark::State& st) {
  util::Rng rng(1);
  ml::TransformerConfig cfg;
  ml::GraphTransformer enc(cfg, rng);
  const int n = static_cast<int>(st.range(0));
  const ml::Mat x = ml::Mat::xavier(n, cfg.input_features, rng);
  const ml::Mat adj = ml::chain_adjacency(n);
  for (auto _ : st) benchmark::DoNotOptimize(enc.forward(x, adj));
  st.counters["nodes/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(st.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TransformerForward)->Arg(8)->Arg(24)->Arg(64)->Unit(benchmark::kMicrosecond);

// ---- BM_MlEngine: the batched SIMD inference engine -------------------------

// Raw f32 GEMM kernel at the engine's workhorse shape (a 16-graph batch of
// 24-node paths projected through dim 48). Arg 0 = scalar table, 1 = the
// dispatched SIMD table (falls back to scalar on non-AVX2 hosts).
void BM_MlGemm(benchmark::State& st) {
  constexpr int kM = 384, kK = 48, kN = 48;
  util::Rng rng(7);
  std::vector<float> a(static_cast<std::size_t>(kM) * kK);
  std::vector<float> b(static_cast<std::size_t>(kK) * kN);
  std::vector<float> c(static_cast<std::size_t>(kM) * kN, 0.0f);
  for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const ml::Kernels& ker = ml::kernels_for(static_cast<ml::SimdLevel>(st.range(0)));
  for (auto _ : st) {
    ker.gemm(kM, kK, kN, a.data(), b.data(), c.data(), true);
    benchmark::ClobberMemory();  // see BM_FlowStages: lvalue DoNotOptimize miscompiles
  }
  st.counters["flops/s"] = benchmark::Counter(
      2.0 * kM * kK * kN * static_cast<double>(st.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MlGemm)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The double training products at the DGI shapes of a packed 8-graph batch
// (120 rows, dim 48), one row per SIMD level (Arg 0 = scalar, 1 = avx2,
// 2 = avx512, clamped to the CPU; the label names the level that ran): an
// nn product on a dense A (a projection) and a tn product on a ReLU-sparse
// A (a weight gradient, about half of A zero).
void BM_DgemmTrain(benchmark::State& st) {
  constexpr int kRows = 120, kDim = 48;
  util::Rng rng(11);
  std::vector<double> dense(static_cast<std::size_t>(kRows) * kDim);
  std::vector<double> relu(dense.size());
  std::vector<double> b(dense.size());
  std::vector<double> c(dense.size());
  for (double& v : dense) v = rng.uniform(-1.0, 1.0);
  for (double& v : relu) v = std::max(0.0, rng.uniform(-1.0, 1.0));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const ml::SimdLevel level =
      std::min(static_cast<ml::SimdLevel>(st.range(0)), ml::best_simd());
  const ml::Kernels& ker = ml::kernels_for(level);
  for (auto _ : st) {
    // nn 120x48x48: C(120 x 48) = A(120 x 48) · B(48 x 48).
    ker.dgemm(kRows, kDim, kDim, dense.data(), kDim, b.data(), kDim, c.data(), kDim);
    // tn 48x120x48: C(48 x 48) = A(120 x 48)ᵀ · B(120 x 48).
    ker.dgemm_tn(kDim, kRows, kDim, relu.data(), kDim, b.data(), kDim, c.data(), kDim);
    benchmark::ClobberMemory();
  }
  st.SetLabel(ml::to_string(level));
  st.counters["madds/s"] = benchmark::Counter(2.0 * kRows * kDim * kDim *
                                                  static_cast<double>(st.iterations()),
                                              benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DgemmTrain)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// Batched float32 forward over a synthetic corpus: the per-path amortized
// cost the engine buys over the per-graph double-precision stack.
void BM_MlBatchedForward(benchmark::State& st) {
  util::Rng rng(3);
  ml::TransformerConfig cfg;
  ml::GraphTransformer enc(cfg, rng);
  ml::MlpHead head(cfg.dim, 24, rng);
  constexpr int kGraphs = 64, kNodes = 24;
  std::vector<ml::PathGraph> graphs(kGraphs);
  for (ml::PathGraph& g : graphs) {
    g.x = ml::Mat::xavier(kNodes, cfg.input_features, rng);
    g.adj = ml::chain_adjacency(kNodes);
    g.net_ids.resize(kNodes);
    for (int i = 0; i < kNodes; ++i) g.net_ids[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
  }
  ml::FeatureScaler scaler;
  scaler.fit(graphs);
  ml::InferenceEngine eng(enc, head, scaler);
  for (auto _ : st) {
    benchmark::DoNotOptimize(eng.predict(graphs));
    benchmark::ClobberMemory();
  }
  st.counters["paths/s"] = benchmark::Counter(
      static_cast<double>(kGraphs) * static_cast<double>(st.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MlBatchedForward)->Unit(benchmark::kMillisecond);

// One supervised training step through encoder and head on a packed batch
// of 8 ragged path graphs (10-24 nodes): one forward, one backward and one
// Adam step for the whole batch.
void BM_TransformerTrainStep(benchmark::State& st) {
  util::Rng rng(2);
  ml::TransformerConfig cfg;
  ml::GraphTransformer enc(cfg, rng);
  ml::MlpHead head(cfg.dim, 24, rng);
  std::vector<ml::PathGraph> graphs(8);
  std::vector<int> labels;
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const int n = 10 + static_cast<int>(2 * g);
    graphs[g].x = ml::Mat::xavier(n, cfg.input_features, rng);
    graphs[g].adj = ml::chain_adjacency(n);
    for (int i = 0; i < n; ++i) labels.push_back(i % 2);
  }
  std::vector<const ml::PathGraph*> members;
  for (const ml::PathGraph& g : graphs) members.push_back(&g);
  ml::GraphBatch batch;
  ml::Mat x;
  ml::pack(members, batch, x);
  std::vector<ml::Param*> params = enc.params();
  for (ml::Param* p : head.params()) params.push_back(p);
  ml::Adam opt(params, 1e-3);
  ml::GraphTransformer::Cache cache;
  ml::Mat h, dh, dx;
  for (auto _ : st) {
    enc.zero_grad();
    head.zero_grad();
    enc.forward(x, batch, cache, h);
    benchmark::DoNotOptimize(head.loss_and_grad(h, batch, labels, 2.0, dh));
    enc.backward(dh, cache, dx);
    opt.step();
  }
  st.counters["graphs/s"] = benchmark::Counter(
      static_cast<double>(graphs.size()) * static_cast<double>(st.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TransformerTrainStep)->Unit(benchmark::kMicrosecond);

// One DGI epoch over the maeri16 corpus with the default model: per
// mini-batch of DgiTrainer::kGraphsPerStep paths, a packed clean and a
// packed corrupted forward, their two backward passes and one Adam step.
// The corpus and the trainer are built once; the weights keep training
// across iterations, which leaves the per-epoch work unchanged.
void BM_DgiEpoch(benchmark::State& st) {
  struct DgiBenchState {
    DgiBenchState() : rng(42), enc(ml::TransformerConfig{}, rng), dgi(enc, rng) {
      mls::CorpusOptions co;
      co.max_paths = 200;
      co.attach_labels = false;
      graphs = state().flow->corpus(co).graphs;
      ml::FeatureScaler scaler;
      scaler.fit(graphs);
      for (ml::PathGraph& g : graphs) scaler.apply(g);
      std::vector<ml::Param*> params = enc.params();
      params.push_back(&dgi.discriminator());
      opt = std::make_unique<ml::Adam>(params, 1e-3);
    }
    util::Rng rng;
    ml::GraphTransformer enc;
    ml::DgiTrainer dgi;
    std::vector<ml::PathGraph> graphs;
    std::unique_ptr<ml::Adam> opt;
  };
  static DgiBenchState ds;
  for (auto _ : st) benchmark::DoNotOptimize(ds.dgi.train_epoch(ds.graphs, *ds.opt, ds.rng));
  st.counters["paths"] = static_cast<double>(ds.graphs.size());
}
BENCHMARK(BM_DgiEpoch)->Unit(benchmark::kMillisecond);

void BM_FaultSimulation(benchmark::State& st) {
  auto& f = *state().flow;
  for (auto _ : st) {
    dft::FaultSimulator sim(f.design().nl, dft::TestModel{});
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_FaultSimulation)->Unit(benchmark::kMillisecond);

void BM_MlsGainOracle(benchmark::State& st) {
  auto& f = *state().flow;
  std::vector<netlist::Id> nets;
  for (netlist::Id n = 0; n < f.design().nl.num_nets() && nets.size() < 64; ++n)
    if (f.design().nl.net_hpwl_um(n) > 60.0 && !f.design().nl.net(n).sinks.empty())
      nets.push_back(n);
  for (auto _ : st) {
    double acc = 0.0;
    for (netlist::Id n : nets)
      acc += mls::mls_gain_ps(f.design(), f.tech(), f.router(), n,
                              f.design().nl.pin(f.design().nl.net(n).sinks[0]).cell);
    benchmark::DoNotOptimize(acc);
  }
  st.counters["nets/s"] = benchmark::Counter(
      static_cast<double>(nets.size()) * static_cast<double>(st.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MlsGainOracle)->Unit(benchmark::kMicrosecond);

// ---- per-stage flow ledgers -------------------------------------------------
// These export the span-derived stage breakdown (FlowMetrics.route_s etc.) as
// benchmark counters, so CI's BENCH_incremental.json carries per-stage times
// (route/STA/decide/DFT) run over run, not just the end-to-end number.

// Primitive costs of the observability layer itself, backing the "<1% when
// disabled" budget: a disabled Span is two steady_clock reads plus a guarded
// branch (~100ns), a counter add is one relaxed atomic RMW (~9ns). Against
// an 8-net ECO repair (BM_RerouteEco/8, ~83us in a Release build on a
// 4-vCPU x86 host: one span plus up to four counter adds per net, ~0.4us)
// that is about 0.5%.
void BM_DisabledSpan(benchmark::State& st) {
  obs::Tracer::instance().set_enabled(false);
  for (auto _ : st) {
    obs::Span span("bench.disabled");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_DisabledSpan)->Unit(benchmark::kNanosecond);

void BM_CounterAdd(benchmark::State& st) {
  obs::Counter& c = obs::Metrics::instance().counter("bench.counter_add");
  for (auto _ : st) {
    c.add(1);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CounterAdd)->Unit(benchmark::kNanosecond);

// Histogram observe is the always-on cost added to every instrumented hot
// path (per-edge route, GNN inference): one bit_cast bucket index
// plus two relaxed atomic RMWs. CI's BENCH_obs.json smoke gates on it
// staying in the tens-of-ns regime next to BM_CounterAdd.
void BM_HistogramObserve(benchmark::State& st) {
  obs::Histogram& h = obs::Metrics::instance().histogram("bench.hist_observe");
  double v = 1e-6;
  for (auto _ : st) {
    h.observe(v);
    v += 1e-9;  // walk the value so the bucket index is not loop-invariant
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HistogramObserve)->Unit(benchmark::kNanosecond);

// A flight-recorder event is one global ordinal fetch_add, a seqlock stamp
// pair, and eight relaxed stores into the thread's ring slot — the cost a
// pass begin/end or DB commit pays unconditionally.
void BM_RecorderEvent(benchmark::State& st) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  for (auto _ : st) {
    rec.record(obs::EventKind::kMark, "bench.recorder_event", 1, 2);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RecorderEvent)->Unit(benchmark::kNanosecond);

void BM_FlowStages(benchmark::State& st) {
  auto& f = *state().flow;
  mls::FlowMetrics m;
  for (auto _ : st) {
    // The pass manager would skip everything on an unmutated DB (that case
    // is BM_PassSkip's); invalidate routing so every stage really runs.
    f.db().invalidate(core::Stage::kRoutes);
    m = f.evaluate_no_mls();
    // Not DoNotOptimize(m.runtime_s): benchmark 1.7.x's lvalue overload uses
    // an "+m,r" asm constraint that GCC miscompiles at -O2 (gcc PR105519),
    // clobbering the double. The call is opaque; a barrier is enough.
    benchmark::ClobberMemory();
  }
  st.counters["route_s"] = m.route_s;
  st.counters["sta_s"] = m.sta_s;
  st.counters["power_s"] = m.power_s;
  st.counters["check_s"] = m.check_s;
  st.counters["runtime_s"] = m.runtime_s;
}
BENCHMARK(BM_FlowStages)->Unit(benchmark::kMillisecond);

// The revision-aware scheduler's best case: nothing changed, so evaluate()
// is one scheduling walk plus metrics assembly from the DB caches. The
// counters pin the contract (0 executed, everything skipped) so a CI diff
// shows immediately if a pass starts leaking staleness.
void BM_PassSkip(benchmark::State& st) {
  auto& f = *state().flow;
  f.evaluate_no_mls();  // make every stage fresh
  mls::FlowMetrics m;
  std::size_t executed = 0, skipped = 0;
  for (auto _ : st) {
    m = f.evaluate_no_mls();
    executed = f.last_run_report().executed.size();
    skipped = f.last_run_report().skipped.size();
    benchmark::ClobberMemory();  // see BM_FlowStages: lvalue DoNotOptimize miscompiles
  }
  st.counters["passes_executed"] = static_cast<double>(executed);
  st.counters["passes_skipped"] = static_cast<double>(skipped);
  st.counters["skip_rate"] =
      static_cast<double>(skipped) / static_cast<double>(executed + skipped);
  st.counters["runtime_s"] = m.runtime_s;
}
BENCHMARK(BM_PassSkip)->Unit(benchmark::kMicrosecond);

// One IR-drop solve on the MAERI-128 memory tier's 88x88 PDN grid (7 um
// pitch, U = 8%), fed the tier's routed power map: the per-tier cost of
// synthesize_pdn, which solves once per tier and sizes U in closed form.
void BM_IrDropSolve(benchmark::State& st) {
  static const auto input = [] {
    util::set_log_level(util::LogLevel::kError);
    mls::FlowConfig cfg;
    cfg.heterogeneous = true;
    cfg.run_pdn = false;
    mls::DesignFlow flow(netlist::make_maeri_128pe(), cfg);
    flow.evaluate_no_mls();
    const tech::MetalLayer& top = flow.tech().beol_top.layer(flow.tech().beol_top.top());
    pdn::PdnGridSpec spec;
    spec.die_w_um = flow.design().info.die_w_um;
    spec.die_h_um = flow.design().info.die_h_um;
    spec.strap_pitch_um = 7.0;
    spec.strap_width_um = 0.08 * spec.strap_pitch_um;
    spec.sheet_r_ohm = top.r_ohm_per_um * top.width_um;
    spec.vdd = flow.tech().vdd_top();
    return std::make_pair(spec, pdn::power_density_map(flow.design(), flow.tech(),
                                                       flow.router().routes(), 1, 48, 48));
  }();
  pdn::IrDropResult r;
  for (auto _ : st) {
    r = pdn::solve_ir_drop(input.first, input.second, 48, 48);
    benchmark::ClobberMemory();  // see BM_FlowStages: lvalue DoNotOptimize miscompiles
  }
  st.counters["grid_nx"] = r.grid_nx;
  st.counters["grid_ny"] = r.grid_ny;
  st.counters["max_drop_mv"] = r.max_drop_mv;
}
BENCHMARK(BM_IrDropSolve)->Unit(benchmark::kMillisecond);

void BM_FlowDftStages(benchmark::State& st) {
  // The DFT flow mutates the netlist permanently, so each iteration gets a
  // fresh design; construction (buffering + placement) stays off the clock.
  mls::DesignFlow::DftMetrics dm;
  for (auto _ : st) {
    st.PauseTiming();
    mls::FlowConfig cfg;
    cfg.heterogeneous = true;
    cfg.run_pdn = false;
    mls::DesignFlow flow(netlist::make_maeri_16pe(), cfg);
    st.ResumeTiming();
    dm = flow.evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kWireBased);
    benchmark::ClobberMemory();  // see BM_FlowStages: lvalue DoNotOptimize miscompiles
  }
  st.counters["route_s"] = dm.flow.route_s;
  st.counters["sta_s"] = dm.flow.sta_s;
  st.counters["dft_s"] = dm.flow.dft_s;
  st.counters["runtime_s"] = dm.flow.runtime_s;
}
BENCHMARK(BM_FlowDftStages)->Unit(benchmark::kMillisecond);

// Recording cost of the contract audit (src/audit/ layer 2): the timed loop
// is BM_FlowStages' workload with GNNMLS_AUDIT=1 — recorder bound, every
// DB access noted, the declaration diff run after each wave. An audit-off
// twin phase is hand-timed off the clock so the counters can report the
// relative overhead directly; the CI ledger watches overhead_pct against
// the <=10% budget.
void BM_AuditOverhead(benchmark::State& st) {
  auto& f = *state().flow;
  mls::FlowMetrics m;
  using clock = std::chrono::steady_clock;

  // Reference phase: the identical workload, audit off (one warm-up lap
  // first so both phases run against a hot ledger and allocator).
  constexpr int kRefIters = 8;
  f.db().invalidate(core::Stage::kRoutes);
  m = f.evaluate_no_mls();
  const auto ref0 = clock::now();
  for (int i = 0; i < kRefIters; ++i) {
    f.db().invalidate(core::Stage::kRoutes);
    m = f.evaluate_no_mls();
    benchmark::ClobberMemory();  // see BM_FlowStages: lvalue DoNotOptimize miscompiles
  }
  const double off_s = std::chrono::duration<double>(clock::now() - ref0).count() / kRefIters;

  ::setenv("GNNMLS_AUDIT", "1", 1);
  std::size_t audited = 0, iters = 0, violations = 0;
  const auto on0 = clock::now();
  for (auto _ : st) {
    f.db().invalidate(core::Stage::kRoutes);
    m = f.evaluate_no_mls();
    audited = f.last_run_report().audited;
    violations = f.last_run_report().audit.size();
    ++iters;
    benchmark::ClobberMemory();  // see BM_FlowStages: lvalue DoNotOptimize miscompiles
  }
  const double on_s =
      std::chrono::duration<double>(clock::now() - on0).count() / static_cast<double>(iters);
  ::unsetenv("GNNMLS_AUDIT");

  st.counters["audited_passes"] = static_cast<double>(audited);
  st.counters["violations"] = static_cast<double>(violations);  // must stay 0
  st.counters["baseline_ms"] = off_s * 1e3;
  st.counters["audited_ms"] = on_s * 1e3;
  st.counters["overhead_pct"] = off_s > 0.0 ? (on_s - off_s) / off_s * 100.0 : 0.0;
  st.counters["runtime_s"] = m.runtime_s;
}
BENCHMARK(BM_AuditOverhead)->Unit(benchmark::kMillisecond);

// One tiny-but-real engine per inference path (scaler fitted by a 1-epoch
// pretrain), reused across iterations; the measured region is exactly the
// decision stage. Both paths share seed 42 so they carry identical weights.
struct DecideBenchState {
  explicit DecideBenchState(mls::MlEnginePath path) {
    auto& f = *state().flow;
    mls::GnnMlsConfig cfg;
    cfg.dgi.epochs = 1;
    cfg.fine_tune.epochs = 2;
    cfg.ml_engine = path;
    engine = std::make_unique<mls::GnnMlsEngine>(cfg);
    engine->pretrain(f.corpus(corpus()).graphs);
  }
  static mls::CorpusOptions corpus() {
    mls::CorpusOptions co;
    co.max_paths = 120;
    co.attach_labels = false;
    return co;
  }
  std::unique_ptr<mls::GnnMlsEngine> engine;
};

// Scalar double-precision baseline (the pre-engine reference path; the
// check-ml gate measures BM_DecideStageBatched against this row).
void BM_DecideStage(benchmark::State& st) {
  static DecideBenchState ds(mls::MlEnginePath::kScalar);
  auto& f = *state().flow;
  const mls::CorpusOptions co = DecideBenchState::corpus();
  double decide_s = 0.0;
  for (auto _ : st) {
    obs::Span span("bench.decide");
    benchmark::DoNotOptimize(
        ds.engine->decide(f.design(), f.tech(), f.router(), f.sta(), co));
    span.end();
    decide_s = span.seconds();
  }
  st.counters["decide_s"] = decide_s;
}
BENCHMARK(BM_DecideStage)->Unit(benchmark::kMillisecond);

// Batched float32 SIMD engine on the same decide: the engine-vs-reference
// comparison (check-ml gates it at >= 5x).
void BM_DecideStageBatched(benchmark::State& st) {
  static DecideBenchState ds(mls::MlEnginePath::kBatched);
  auto& f = *state().flow;
  const mls::CorpusOptions co = DecideBenchState::corpus();
  for (auto _ : st) {
    benchmark::DoNotOptimize(
        ds.engine->decide(f.design(), f.tech(), f.router(), f.sta(), co));
  }
}
BENCHMARK(BM_DecideStageBatched)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
