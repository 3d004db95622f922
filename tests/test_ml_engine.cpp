// Batched SIMD inference engine properties (ml/engine.hpp):
//   * kernel parity — every AVX2 kernel matches its scalar reference on
//     random inputs within float32 tolerance, including both GEMM
//     accumulate modes and the fused attention kernel;
//   * ragged packing — pack() lays graphs back to back with exact offsets
//     and scaler-normalized features, and graph_fingerprint() keys on
//     content (features, adjacency, net ids, shape, tag);
//   * numeric parity — batched float32 probabilities track the
//     double-precision scalar stack within the pinned tolerance;
//   * determinism — decide() flags are bit-identical between the scalar and
//     batched paths, across GNNMLS_THREADS in {1,2,4}, and under
//     GNNMLS_SIMD=scalar;
//   * embedding cache — warm predicts hit, a graph whose content an ECO
//     changed misses (and only that graph), and a warm re-decide reproduces
//     the cold twin's PPA row bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "ml/batcher.hpp"
#include "ml/dataset.hpp"
#include "ml/engine.hpp"
#include "ml/kernels.hpp"
#include "ml/mlp.hpp"
#include "ml/transformer.hpp"
#include "mls/flow.hpp"
#include "mls/gnnmls.hpp"
#include "netlist/generators.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace gnnmls;

std::vector<float> random_f32(int count, util::Rng& rng) {
  const ml::Mat m = ml::Mat::xavier(count, 1, rng);
  std::vector<float> out(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out[static_cast<std::size_t>(i)] = static_cast<float>(m.data()[static_cast<std::size_t>(i)]);
  return out;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b, float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float denom = std::max(1.0f, std::abs(a[i]));
    EXPECT_NEAR(a[i], b[i], tol * denom) << "index " << i;
  }
}

// ---- kernel parity ----------------------------------------------------------

class KernelParity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!ml::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  }
  const ml::Kernels& sc = ml::kernels_for(ml::SimdLevel::kScalar);
  const ml::Kernels& vx = ml::kernels_for(ml::SimdLevel::kAvx2);
  util::Rng rng{7};
};

TEST_F(KernelParity, GemmBothAccumulateModes) {
  // Odd sizes on purpose: exercises the panel tails and the odd-row path.
  constexpr int kM = 37, kK = 23, kN = 53;
  const std::vector<float> a = random_f32(kM * kK, rng);
  const std::vector<float> b = random_f32(kK * kN, rng);
  const std::vector<float> seed = random_f32(kM * kN, rng);

  std::vector<float> c1 = seed, c2 = seed;
  sc.gemm(kM, kK, kN, a.data(), b.data(), c1.data(), true);
  vx.gemm(kM, kK, kN, a.data(), b.data(), c2.data(), true);
  expect_close(c1, c2, 1e-4f);

  c1 = seed;
  c2 = seed;
  sc.gemm(kM, kK, kN, a.data(), b.data(), c1.data(), false);
  vx.gemm(kM, kK, kN, a.data(), b.data(), c2.data(), false);
  expect_close(c1, c2, 1e-4f);
}

TEST_F(KernelParity, GemmNt) {
  constexpr int kM = 19, kK = 48, kN = 31;
  const std::vector<float> a = random_f32(kM * kK, rng);
  const std::vector<float> b = random_f32(kN * kK, rng);
  for (const bool acc : {true, false}) {
    std::vector<float> c1 = random_f32(kM * kN, rng);
    std::vector<float> c2 = c1;
    sc.gemm_nt(kM, kK, kN, a.data(), b.data(), c1.data(), acc);
    vx.gemm_nt(kM, kK, kN, a.data(), b.data(), c2.data(), acc);
    expect_close(c1, c2, 1e-4f);
  }
}

TEST_F(KernelParity, RowwiseOps) {
  constexpr int kM = 21, kN = 45;
  const std::vector<float> x = random_f32(kM * kN, rng);
  const std::vector<float> gamma = random_f32(kN, rng);
  const std::vector<float> beta = random_f32(kN, rng);
  const std::vector<float> bias = random_f32(kN, rng);

  std::vector<float> s1 = x, s2 = x;
  sc.softmax_rows(kM, kN, s1.data());
  vx.softmax_rows(kM, kN, s2.data());
  expect_close(s1, s2, 1e-5f);

  std::vector<float> r1 = x, r2 = x;
  sc.relu(r1.size(), r1.data());
  vx.relu(r2.size(), r2.data());
  expect_close(r1, r2, 0.0f);

  std::vector<float> br1 = x, br2 = x;
  sc.bias_relu_rows(kM, kN, bias.data(), br1.data());
  vx.bias_relu_rows(kM, kN, bias.data(), br2.data());
  expect_close(br1, br2, 1e-6f);

  std::vector<float> l1(x.size()), l2(x.size());
  sc.layernorm_rows(kM, kN, x.data(), gamma.data(), beta.data(), 1e-5f, l1.data());
  vx.layernorm_rows(kM, kN, x.data(), gamma.data(), beta.data(), 1e-5f, l2.data());
  expect_close(l1, l2, 1e-4f);
}

TEST_F(KernelParity, FusedAttention) {
  // d=48/heads=3 matches the model; n=21 exercises the vector tails.
  constexpr int kN = 21, kD = 48, kHeads = 3, kStride = 3 * kD;
  const std::vector<float> qkv = random_f32(kN * kStride, rng);
  const std::vector<float> edge_bias = random_f32(kHeads, rng);
  const ml::Mat adj_m = ml::chain_adjacency(kN);
  std::vector<float> adj(static_cast<std::size_t>(kN) * kN);
  for (std::size_t i = 0; i < adj.size(); ++i) adj[i] = static_cast<float>(adj_m.data()[i]);
  const float scale = 1.0f / std::sqrt(16.0f);

  std::vector<float> ws(static_cast<std::size_t>(kN) * kN);
  std::vector<float> o1(static_cast<std::size_t>(kN) * kD, 0.0f);
  std::vector<float> o2 = o1;
  const float* q = qkv.data();
  sc.attention(kN, kD, kHeads, q, q + kD, q + 2 * kD, kStride, adj.data(), kN,
               edge_bias.data(), scale, ws.data(), o1.data(), kD);
  vx.attention(kN, kD, kHeads, q, q + kD, q + 2 * kD, kStride, adj.data(), kN,
               edge_bias.data(), scale, ws.data(), o2.data(), kD);
  expect_close(o1, o2, 1e-4f);
}

// ---- packing + fingerprints -------------------------------------------------

ml::PathGraph make_graph(int nodes, std::uint64_t seed, std::uint32_t net_base = 100) {
  util::Rng rng(seed);
  ml::TransformerConfig cfg;
  ml::PathGraph g;
  g.x = ml::Mat::xavier(nodes, cfg.input_features, rng);
  g.adj = ml::chain_adjacency(nodes);
  g.net_ids.resize(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i)
    g.net_ids[static_cast<std::size_t>(i)] = net_base + static_cast<std::uint32_t>(i);
  return g;
}

TEST(Batcher, RaggedPackLayout) {
  const std::vector<ml::PathGraph> graphs = {make_graph(5, 1), make_graph(9, 2),
                                             make_graph(3, 3)};
  ml::FeatureScaler scaler;
  scaler.fit(graphs);
  std::vector<const ml::PathGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  const ml::PackedBatch b = ml::pack(ptrs, scaler);

  EXPECT_EQ(b.graphs, 3);
  EXPECT_EQ(b.max_nodes, 9);
  EXPECT_EQ(b.total_rows, 17);
  ASSERT_EQ(b.nodes, (std::vector<int>{5, 9, 3}));
  ASSERT_EQ(b.row_offset, (std::vector<int>{0, 5, 14}));
  ASSERT_EQ(b.adj_offset, (std::vector<int>{0, 25, 106}));
  EXPECT_EQ(b.x.size(), static_cast<std::size_t>(17) * b.features);
  EXPECT_EQ(b.adj.size(), 25u + 81u + 9u);

  // Packed features are the scaler-normalized originals (double math, then
  // rounded to float — the exact recipe the scalar path uses).
  ml::Mat norm;
  scaler.apply_into(graphs[1].x, norm);
  const float* row0 = b.x.data() + static_cast<std::size_t>(b.row_offset[1]) * b.features;
  for (int j = 0; j < b.features; ++j)
    EXPECT_EQ(row0[j], static_cast<float>(norm.data()[static_cast<std::size_t>(j)]));

  // Adjacency blocks are verbatim copies at their offsets.
  const float* blk = b.adj.data() + b.adj_offset[2];
  for (std::size_t i = 0; i < 9; ++i)
    EXPECT_EQ(blk[i], static_cast<float>(graphs[2].adj.data()[i]));
}

TEST(Batcher, FingerprintKeysOnContent) {
  const ml::PathGraph g = make_graph(6, 11);
  EXPECT_EQ(ml::graph_fingerprint(g), ml::graph_fingerprint(make_graph(6, 11)));

  ml::PathGraph feat = g;
  feat.x.data()[3] += 1e-9;  // any bit of any feature
  EXPECT_NE(ml::graph_fingerprint(feat), ml::graph_fingerprint(g));

  ml::PathGraph adj = g;
  adj.adj.data()[1] = 0.0;  // drop an edge
  EXPECT_NE(ml::graph_fingerprint(adj), ml::graph_fingerprint(g));

  ml::PathGraph nets = g;
  nets.net_ids[0] ^= 1u;
  EXPECT_NE(ml::graph_fingerprint(nets), ml::graph_fingerprint(g));

  ml::PathGraph tag = g;
  tag.design_tag = 7;
  EXPECT_NE(ml::graph_fingerprint(tag), ml::graph_fingerprint(g));

  EXPECT_NE(ml::graph_fingerprint(make_graph(5, 11)), ml::graph_fingerprint(g));
}

// ---- engine vs scalar stack -------------------------------------------------

std::vector<ml::PathGraph> synthetic_corpus(int graphs, int min_nodes = 4) {
  std::vector<ml::PathGraph> out;
  for (int i = 0; i < graphs; ++i)
    out.push_back(make_graph(min_nodes + (i % 13), 100 + static_cast<std::uint64_t>(i),
                             static_cast<std::uint32_t>(10 * i)));
  return out;
}

TEST(InferenceEngine, MatchesScalarStackWithinTolerance) {
  util::set_log_level(util::LogLevel::kError);
  mls::GnnMlsConfig cfg;
  cfg.dgi.epochs = 1;
  mls::GnnMlsEngine gnn(cfg);
  const std::vector<ml::PathGraph> corpus = synthetic_corpus(40);
  gnn.pretrain(corpus);

  const std::vector<std::vector<float>> batched = gnn.inference().predict(corpus);
  ASSERT_EQ(batched.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::vector<double> scalar = gnn.predict(corpus[i]);
    ASSERT_EQ(batched[i].size(), scalar.size());
    for (std::size_t j = 0; j < scalar.size(); ++j)
      EXPECT_NEAR(batched[i][j], scalar[j], 1e-3) << "graph " << i << " node " << j;
  }
}

TEST(InferenceEngine, WarmPredictHitsAndEcoInvalidatesExactly) {
  util::set_log_level(util::LogLevel::kError);
  mls::GnnMlsConfig cfg;
  cfg.dgi.epochs = 1;
  mls::GnnMlsEngine gnn(cfg);
  std::vector<ml::PathGraph> corpus = synthetic_corpus(30);
  gnn.pretrain(corpus);
  ml::InferenceEngine& eng = gnn.inference();

  const std::vector<std::vector<float>> cold = eng.predict(corpus);
  EXPECT_EQ(eng.stats().cache_misses, corpus.size());
  const std::vector<std::vector<float>> warm = eng.predict(corpus);
  EXPECT_EQ(eng.stats().cache_hits, corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) EXPECT_EQ(warm[i], cold[i]);

  // Perturbed content computes a fresh key: a changed graph can never be
  // served its stale probabilities.
  corpus[3].x.data()[0] += 0.5;
  const std::uint64_t misses2 = eng.stats().cache_misses;
  eng.predict(corpus);
  EXPECT_EQ(eng.stats().cache_misses, misses2 + 1);

  // sync() (retraining) bumps the weights epoch and drops everything.
  gnn.pretrain(corpus);
  ml::InferenceEngine& resynced = gnn.inference();
  EXPECT_EQ(resynced.cache_size(), 0u);
  EXPECT_GE(resynced.weights_epoch(), 1u);
}

// ---- decide-path determinism ------------------------------------------------

struct DecideFixture {
  DecideFixture() : flow(netlist::make_maeri_16pe(), config()) {
    util::set_log_level(util::LogLevel::kError);
    flow.evaluate_no_mls();
  }
  static mls::FlowConfig config() {
    util::set_log_level(util::LogLevel::kError);
    return mls::FlowConfig{};
  }
  static mls::GnnMlsConfig engine_config(mls::MlEnginePath path) {
    mls::GnnMlsConfig cfg;
    cfg.dgi.epochs = 1;
    cfg.fine_tune.epochs = 2;
    cfg.ml_engine = path;
    return cfg;
  }
  static mls::CorpusOptions corpus_options() {
    mls::CorpusOptions co;
    co.max_paths = 80;
    co.attach_labels = false;
    return co;
  }
  std::vector<std::uint8_t> decide(mls::GnnMlsEngine& engine) {
    return engine.decide(flow.design(), flow.tech(), flow.router(), flow.sta(),
                         corpus_options());
  }
  mls::DesignFlow flow;
};

TEST(DecideDeterminism, FlagsBitIdenticalAcrossPathsThreadsAndSimd) {
  DecideFixture fx;
  // Same seed + same corpus -> identical trained weights; only the inference
  // path differs between the two engines.
  mls::GnnMlsEngine scalar(DecideFixture::engine_config(mls::MlEnginePath::kScalar));
  mls::GnnMlsEngine batched(DecideFixture::engine_config(mls::MlEnginePath::kBatched));
  const mls::Corpus pretrain = fx.flow.corpus(DecideFixture::corpus_options());
  scalar.pretrain(pretrain.graphs);
  batched.pretrain(pretrain.graphs);

  const std::vector<std::uint8_t> ref = fx.decide(scalar);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(fx.decide(batched), ref);

  // Thread-count sweep: batch formation is a pure function of the miss list,
  // so the decision vector cannot move with GNNMLS_THREADS.
  for (const char* threads : {"1", "2", "4"}) {
    ::setenv("GNNMLS_THREADS", threads, 1);
    batched.clear_inference_cache();
    EXPECT_EQ(fx.decide(batched), ref) << "GNNMLS_THREADS=" << threads;
  }
  ::unsetenv("GNNMLS_THREADS");

  // SIMD-level sweep: the scalar float32 kernels land on the same decisions.
  const ml::SimdLevel prev = ml::set_simd_for_test(ml::SimdLevel::kScalar);
  batched.clear_inference_cache();
  EXPECT_EQ(fx.decide(batched), ref);
  ml::set_simd_for_test(prev);

  // Warm re-decide: same flags, served almost entirely from the cache.
  const ml::EngineStats before = *batched.inference_stats();
  EXPECT_EQ(fx.decide(batched), ref);
  const ml::EngineStats& after = *batched.inference_stats();
  const std::uint64_t hits = after.cache_hits - before.cache_hits;
  const std::uint64_t misses = after.cache_misses - before.cache_misses;
  ASSERT_GT(hits + misses, 0u);
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(hits + misses), 0.9);
}

TEST(DecideDeterminism, WarmReEvaluateReproducesColdTwinPpa) {
  mls::FlowConfig cfg = DecideFixture::config();
  mls::DesignFlow flow(netlist::make_maeri_16pe(), cfg);
  mls::DesignFlow twin(netlist::make_maeri_16pe(), cfg);

  mls::GnnMlsEngine eng(DecideFixture::engine_config(mls::MlEnginePath::kBatched));
  mls::GnnMlsEngine twin_eng(DecideFixture::engine_config(mls::MlEnginePath::kBatched));
  flow.evaluate_no_mls();
  twin.evaluate_no_mls();
  eng.pretrain(flow.corpus(DecideFixture::corpus_options()).graphs);
  twin_eng.pretrain(twin.corpus(DecideFixture::corpus_options()).graphs);

  const mls::CorpusOptions co = DecideFixture::corpus_options();
  const mls::FlowMetrics cold = flow.evaluate_gnn(eng, co);
  const std::vector<std::uint8_t> cold_flags = flow.decide_flags();
  const mls::FlowMetrics twin_cold = twin.evaluate_gnn(twin_eng, co);
  EXPECT_EQ(twin.decide_flags(), cold_flags);

  // Re-evaluate with the embedding cache warm: identical decisions, and the
  // PPA row matches the cold twin bit for bit.
  const mls::FlowMetrics warm = flow.evaluate_gnn(eng, co);
  EXPECT_EQ(flow.decide_flags(), cold_flags);
  EXPECT_DOUBLE_EQ(warm.wl_m, twin_cold.wl_m);
  EXPECT_DOUBLE_EQ(warm.wns_ps, twin_cold.wns_ps);
  EXPECT_DOUBLE_EQ(warm.tns_ns, twin_cold.tns_ns);
  EXPECT_EQ(warm.violating, twin_cold.violating);
  EXPECT_EQ(warm.mls_nets, twin_cold.mls_nets);
  EXPECT_EQ(warm.f2f_vias, twin_cold.f2f_vias);
  EXPECT_DOUBLE_EQ(warm.power_mw, twin_cold.power_mw);
  EXPECT_DOUBLE_EQ(warm.eff_freq_mhz, twin_cold.eff_freq_mhz);
  EXPECT_FALSE(warm.degraded);
  EXPECT_DOUBLE_EQ(cold.wl_m, twin_cold.wl_m);

  // Flow-level ECO: grow the netlist, then re-decide. The decide pass feeds
  // the DB's dirty-net set into the cache, the flow completes cleanly, and
  // the flags vector tracks the new net count.
  netlist::Netlist& nl = flow.db().design().nl;
  netlist::Id tapped = netlist::kNullId;
  for (netlist::Id n = 0; n < nl.num_nets(); ++n)
    if (nl.net(n).driver != netlist::kNullId) {
      tapped = n;
      break;
    }
  ASSERT_NE(tapped, netlist::kNullId);
  const netlist::Id buf = nl.add_cell(tech::CellKind::kBuf, 0, 80.0f, 90.0f);
  nl.add_sink(tapped, nl.input_pin(buf, 0));
  const mls::FlowMetrics eco = flow.evaluate_gnn(eng, co);
  EXPECT_FALSE(eco.degraded);
  EXPECT_EQ(flow.decide_flags().size(), static_cast<std::size_t>(flow.design().nl.num_nets()));
  EXPECT_TRUE(flow.run_checks().clean());
}

}  // namespace
