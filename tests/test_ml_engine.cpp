// Batched SIMD inference engine properties (ml/engine.hpp):
//   * kernel parity — every float AVX2 kernel matches its scalar reference
//     on random inputs within float32 tolerance, including both GEMM
//     accumulate modes and the fused attention kernel; the double GEMMs of
//     every level the CPU runs (AVX2, AVX-512) and the Adam update are
//     bit-equal to theirs, and no level fuses a multiply-add;
//   * dispatch — GNNMLS_SIMD names resolve to a level the CPU runs;
//   * ragged packing — pack() lays graphs back to back with exact offsets
//     and scaler-normalized features;
//   * numeric parity — batched float32 probabilities track the
//     double-precision scalar stack within the pinned tolerance;
//   * snapshot freshness — after every pretrain/fine_tune the float32
//     engine predicts exactly what a twin trained the same way predicts;
//   * determinism — decide() flags are bit-identical between the scalar and
//     batched paths, and under GNNMLS_SIMD=scalar, and a warm re-decide
//     reproduces the cold twin's PPA row bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>
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

// ---- double kernels: bit-equal, not just close ------------------------------

// Uniform in [-1, 1] with zeros and negative zeros mixed in.
std::vector<double> random_f64(std::size_t count, util::Rng& rng) {
  std::vector<double> out(count);
  for (double& v : out) {
    const double r = rng.uniform(0.0, 1.0);
    v = r < 0.15 ? 0.0 : r < 0.2 ? -0.0 : rng.uniform(-1.0, 1.0);
  }
  return out;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Every SIMD level this CPU runs, scalar first.
std::vector<ml::SimdLevel> cpu_levels() {
  std::vector<ml::SimdLevel> levels;
  for (int l = 0; l <= static_cast<int>(ml::best_simd()); ++l)
    levels.push_back(static_cast<ml::SimdLevel>(l));
  return levels;
}

struct ProductCase {
  int m, k, n;
  bool padded;    // row strides 3 wider than the rows
  bool relu;      // about half of A zero, as in a ReLU output
  bool specials;  // infinities, NaNs and -0.0 underflows
};

// Runs the four double products of `vx` and of the scalar table on one
// random case and expects the same bits. With `specials`, one k step of B
// holds inf and NaN. The even rows' A entry at that step is zero (+0.0 and
// -0.0), so the zero-skipping products must leave the inf and NaN out of
// them; the odd rows' entry is nonzero, so those rows carry inf and NaN
// through every later term, the zero ones the products mask included.
// Another k step multiplies -1e-200 by 1e-200, whose product underflows to
// -0.0.
void expect_products_bit_equal(const ml::Kernels& sc, const ml::Kernels& vx, const char* level,
                               const ProductCase& pc, util::Rng& rng) {
  const auto [m, k, n, padded, relu, specials] = pc;
  const int pad = padded ? 3 : 0;
  // nn: A is m x k; tn: A is k x m; nt: B is n x k.
  const int lda_nn = k + pad, lda_tn = m + pad, ldb = n + pad, ldb_nt = k + pad, ldc = n + pad;
  std::vector<double> a_nn = random_f64(static_cast<std::size_t>(m) * lda_nn, rng);
  std::vector<double> a_tn = random_f64(static_cast<std::size_t>(k) * lda_tn, rng);
  std::vector<double> b = random_f64(static_cast<std::size_t>(k) * ldb, rng);
  std::vector<double> b_nt = random_f64(static_cast<std::size_t>(n) * ldb_nt, rng);
  // A(i, kk) of the nn and of the tn operand.
  const auto nn = [&](int i, int kk) -> double& {
    return a_nn[static_cast<std::size_t>(i) * lda_nn + kk];
  };
  const auto tn = [&](int i, int kk) -> double& {
    return a_tn[static_cast<std::size_t>(kk) * lda_tn + i];
  };
  if (relu)
    for (std::vector<double>* a : {&a_nn, &a_tn})
      for (double& v : *a)
        if (rng.uniform(0.0, 1.0) < 0.5) v = 0.0;
  if (specials) {
    const int kz = k / 2, ku = k / 3;
    for (int i = 0; i < m; ++i)
      nn(i, kz) = tn(i, kz) = i % 2 == 1 ? 0.5 + i : i % 4 == 0 ? 0.0 : -0.0;
    double* bz = b.data() + static_cast<std::size_t>(kz) * ldb;
    bz[0] = std::numeric_limits<double>::infinity();
    if (n > 1) bz[1] = std::numeric_limits<double>::quiet_NaN();
    if (n > 2) bz[n - 1] = -std::numeric_limits<double>::infinity();
    if (ku != kz) {
      for (int i = 0; i < m; ++i) nn(i, ku) = tn(i, ku) = -1e-200;
      for (int j = 0; j < n; ++j) b[static_cast<std::size_t>(ku) * ldb + j] = 1e-200;
    }
    for (int j = 0; j < n; ++j) b_nt[static_cast<std::size_t>(j) * ldb_nt + ku] = 1e-200;
    // The dense products skip nothing: their zero rows take 0 * inf = NaN.
    b_nt[static_cast<std::size_t>(kz)] = std::numeric_limits<double>::infinity();
  }
  // An all-zero row of A.
  for (int kk = 0; kk < k; ++kk) nn(m / 2, kk) = 0.0;
  for (int kk = 0; kk < k; ++kk) tn(m / 2, kk) = 0.0;
  const std::size_t c_size = static_cast<std::size_t>(m) * ldc;
  std::ostringstream what;
  what << m << "x" << k << "x" << n << (padded ? " padded" : "") << (relu ? " relu" : "")
       << (specials ? " specials" : "") << " at " << level;

  // From 4 rows on, an odd row other than the all-zero one carries an inf.
  const bool carries_inf = specials && m >= 4;
  const auto has_inf = [](const std::vector<double>& c) {
    return std::any_of(c.begin(), c.end(), [](double v) { return std::isinf(v); });
  };
  std::vector<double> c1(c_size, 7.0), c2(c_size, 7.0);
  sc.dgemm(m, k, n, a_nn.data(), lda_nn, b.data(), ldb, c1.data(), ldc);
  vx.dgemm(m, k, n, a_nn.data(), lda_nn, b.data(), ldb, c2.data(), ldc);
  EXPECT_TRUE(bits_equal(c1, c2)) << "dgemm " << what.str();
  if (carries_inf) {
    EXPECT_TRUE(has_inf(c1)) << "dgemm " << what.str();
  }

  c1.assign(c_size, 7.0);
  c2.assign(c_size, 7.0);
  sc.dgemm_tn(m, k, n, a_tn.data(), lda_tn, b.data(), ldb, c1.data(), ldc);
  vx.dgemm_tn(m, k, n, a_tn.data(), lda_tn, b.data(), ldb, c2.data(), ldc);
  EXPECT_TRUE(bits_equal(c1, c2)) << "dgemm_tn " << what.str();
  if (carries_inf) {
    EXPECT_TRUE(has_inf(c1)) << "dgemm_tn " << what.str();
  }

  c1.assign(c_size, 7.0);
  c2.assign(c_size, 7.0);
  sc.dgemm_nt(m, k, n, a_nn.data(), lda_nn, b_nt.data(), ldb_nt, c1.data(), ldc);
  vx.dgemm_nt(m, k, n, a_nn.data(), lda_nn, b_nt.data(), ldb_nt, c2.data(), ldc);
  EXPECT_TRUE(bits_equal(c1, c2)) << "dgemm_nt " << what.str();

  // b_nt transposed at both levels; dense on it gives the nt sums.
  std::vector<double> bt(static_cast<std::size_t>(k) * n);
  for (int j = 0; j < n; ++j)
    for (int kk = 0; kk < k; ++kk)
      bt[static_cast<std::size_t>(kk) * n + j] = b_nt[static_cast<std::size_t>(j) * ldb_nt + kk];
  for (const ml::Kernels* kern : {&sc, &vx}) {
    std::vector<double> t(bt.size(), 7.0);
    kern->dtranspose(n, k, b_nt.data(), ldb_nt, t.data());
    EXPECT_TRUE(bits_equal(bt, t)) << "dtranspose " << what.str();
    std::vector<double> c3(c_size, 7.0);
    kern->dgemm_dense(m, k, n, a_nn.data(), lda_nn, bt.data(), n, c3.data(), ldc);
    EXPECT_TRUE(bits_equal(c1, c3)) << "dgemm_dense " << what.str();
  }
}

TEST_F(KernelParity, DoubleGemmsAreBitEqual) {
  // Ragged shapes, the row blocks and column panels of every width with
  // their tails (m 1..9, n 1..17), the packed training shapes (112 and 120
  // rows, dim 48, FFN 96, 144 = 3 panels) and k up to 128.
  std::vector<ProductCase> cases;
  for (const auto& [m, k, n] : std::vector<std::array<int, 3>>{{1, 1, 1},   {50, 50, 50},
                                                                {11, 16, 11}, {16, 48, 48},
                                                                {11, 48, 96}, {48, 11, 48},
                                                                {3, 17, 5},   {13, 50, 49}})
    cases.push_back({m, k, n, false, false, false});
  const auto dim = [&] { return 1 + static_cast<int>(rng.below(50)); };
  for (int t = 0; t < 120; ++t) cases.push_back({dim(), dim(), dim(), false, false, false});
  const std::array<int, 9> ks = {1, 2, 5, 11, 16, 48, 96, 120, 128};
  int t = 0;
  for (const int m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 112, 120})
    for (const int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 48, 96, 144}) {
      cases.push_back({m, ks[static_cast<std::size_t>(t) % ks.size()], n, false, false, false});
      ++t;
    }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    cases[i].padded = i % 2 == 1;
    cases[i].relu = i % 4 >= 2;
    cases[i].specials = i % 3 == 0;
  }
  for (const ml::SimdLevel level : cpu_levels())
    for (const ProductCase& pc : cases)
      if (level != ml::SimdLevel::kScalar)
        expect_products_bit_equal(sc, ml::kernels_for(level), ml::to_string(level), pc, rng);
}

// A contraction canary: with a = 1 + 2^-52 and b = 1 - 2^-52, a*b rounds to
// 1.0, so -1 + a*b is +0.0 when the multiply and the add round separately,
// and -2^-104 when they are fused into one FMA. Every element of C sums the
// terms (-1)(1) and a*b in that order, at every level and in every product.
// It fails when kernels_f64.cpp loses -ffp-contract=off.
TEST(KernelContract, DoubleProductsRoundEveryMultiplyAndAdd) {
  const double a = 1.0 + 0x1p-52, b = 1.0 - 0x1p-52;
  ASSERT_EQ(std::fma(a, b, -1.0), -0x1p-104);
  for (const ml::SimdLevel level : cpu_levels()) {
    const ml::Kernels& kern = ml::kernels_for(level);
    for (const int m : {1, 5})
      for (const int n : {1, 9, 48}) {
        // A(m x 2) rows [-1, a]; its transpose (2 x m); B(2 x n) rows 1 and
        // b; B's transpose (n x 2) rows [1, b].
        std::vector<double> a_nn, a_tn(2 * static_cast<std::size_t>(m)), b_kn, b_nk;
        for (int i = 0; i < m; ++i) {
          a_nn.insert(a_nn.end(), {-1.0, a});
          a_tn[static_cast<std::size_t>(i)] = -1.0;
          a_tn[static_cast<std::size_t>(m + i)] = a;
        }
        b_kn.assign(static_cast<std::size_t>(n), 1.0);
        b_kn.insert(b_kn.end(), static_cast<std::size_t>(n), b);
        for (int j = 0; j < n; ++j) b_nk.insert(b_nk.end(), {1.0, b});
        const std::vector<double> zeros(static_cast<std::size_t>(m) * n, 0.0);
        std::ostringstream what;
        what << m << "x2x" << n << " at " << ml::to_string(level);
        std::vector<double> c(zeros.size(), 7.0);
        kern.dgemm(m, 2, n, a_nn.data(), 2, b_kn.data(), n, c.data(), n);
        EXPECT_TRUE(bits_equal(c, zeros)) << "dgemm " << what.str();
        c.assign(zeros.size(), 7.0);
        kern.dgemm_tn(m, 2, n, a_tn.data(), m, b_kn.data(), n, c.data(), n);
        EXPECT_TRUE(bits_equal(c, zeros)) << "dgemm_tn " << what.str();
        c.assign(zeros.size(), 7.0);
        kern.dgemm_nt(m, 2, n, a_nn.data(), 2, b_nk.data(), 2, c.data(), n);
        EXPECT_TRUE(bits_equal(c, zeros)) << "dgemm_nt " << what.str();
        c.assign(zeros.size(), 7.0);
        kern.dgemm_dense(m, 2, n, a_nn.data(), 2, b_kn.data(), n, c.data(), n);
        EXPECT_TRUE(bits_equal(c, zeros)) << "dgemm_dense " << what.str();
      }
  }
}

// resolve_simd never picks a level above what the CPU (or the `supported`
// argument standing in for a smaller CPU) runs, and every level's name
// resolves back to it.
TEST(SimdDispatch, ResolvesWithinTheCpuAndRoundTrips) {
  const ml::SimdLevel best = ml::best_simd();
  EXPECT_EQ(best >= ml::SimdLevel::kAvx2, ml::cpu_has_avx2());
  EXPECT_EQ(best == ml::SimdLevel::kAvx512, ml::cpu_has_avx512());
  const util::LogLevel log_level = util::log_level();
  util::set_log_level(util::LogLevel::kError);  // the fallbacks warn
  for (const char* name : {"scalar", "avx2", "avx512", "", "sse9"})
    EXPECT_LE(ml::resolve_simd(name), best) << name;
  EXPECT_EQ(ml::resolve_simd(nullptr), best);
  for (const ml::SimdLevel level :
       {ml::SimdLevel::kScalar, ml::SimdLevel::kAvx2, ml::SimdLevel::kAvx512}) {
    const char* name = ml::to_string(level);
    // On a CPU that runs `level`, its name resolves to it; on one that runs
    // less, to that CPU's best.
    for (const ml::SimdLevel cpu :
         {ml::SimdLevel::kScalar, ml::SimdLevel::kAvx2, ml::SimdLevel::kAvx512})
      EXPECT_EQ(ml::resolve_simd(name, cpu), std::min(level, cpu)) << name;
  }
  // A CPU without avx512f falls back to AVX2, one without AVX2 to scalar.
  EXPECT_EQ(ml::resolve_simd("avx512", ml::SimdLevel::kAvx2), ml::SimdLevel::kAvx2);
  EXPECT_EQ(ml::resolve_simd("avx512", ml::SimdLevel::kScalar), ml::SimdLevel::kScalar);
  EXPECT_EQ(ml::resolve_simd("bogus", ml::SimdLevel::kAvx2), ml::SimdLevel::kAvx2);
  // set_simd_for_test clamps the same way.
  const ml::SimdLevel prev = ml::set_simd_for_test(ml::SimdLevel::kAvx512);
  EXPECT_EQ(ml::active_simd(), best);
  ml::set_simd_for_test(prev);
  util::set_log_level(log_level);
}

TEST_F(KernelParity, AdamUpdateIsBitEqual) {
  for (const std::size_t count : {1u, 3u, 4u, 5u, 17u, 48u, 50u, 1003u}) {
    for (const long t : {1L, 7L}) {
      const ml::AdamStep step{1e-3, 0.9, 0.999, 1e-8, 1.0 - std::pow(0.9, t),
                              1.0 - std::pow(0.999, t)};
      const std::vector<double> g = random_f64(count, rng);
      std::vector<double> m1 = random_f64(count, rng);
      std::vector<double> v1 = random_f64(count, rng);
      for (double& v : v1) v = v * v;
      std::vector<double> w1 = random_f64(count, rng);
      std::vector<double> m2 = m1, v2 = v1, w2 = w1;
      sc.adam(count, step, g.data(), m1.data(), v1.data(), w1.data());
      vx.adam(count, step, g.data(), m2.data(), v2.data(), w2.data());
      EXPECT_TRUE(bits_equal(m1, m2)) << "m, count " << count;
      EXPECT_TRUE(bits_equal(v1, v2)) << "v, count " << count;
      EXPECT_TRUE(bits_equal(w1, w2)) << "w, count " << count;
    }
  }
}

// ---- packing ----------------------------------------------------------------

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

TEST(InferenceEngine, SnapshotFollowsTraining) {
  util::set_log_level(util::LogLevel::kError);
  mls::GnnMlsConfig cfg;
  cfg.dgi.epochs = 1;
  cfg.fine_tune.epochs = 2;
  std::vector<ml::PathGraph> corpus = synthetic_corpus(30);
  for (ml::PathGraph& g : corpus)
    for (std::size_t i = 0; i < g.net_ids.size(); ++i)
      g.labels.push_back(static_cast<int>((g.net_ids[i] / 3) % 2));

  // Each step moves the weights. After it, `gnn` must predict exactly what a
  // twin trained up to the same step predicts: a stale float32 snapshot would
  // still serve the previous step's probabilities.
  const std::vector<std::function<void(mls::GnnMlsEngine&)>> steps = {
      [&](mls::GnnMlsEngine& e) { e.pretrain(corpus); },
      [&](mls::GnnMlsEngine& e) { e.fine_tune(corpus); },
      [&](mls::GnnMlsEngine& e) { e.pretrain(corpus); }};
  mls::GnnMlsEngine gnn(cfg);
  std::vector<std::vector<float>> previous;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    steps[s](gnn);
    const std::vector<std::vector<float>> probs = gnn.inference().predict(corpus);
    EXPECT_EQ(gnn.inference().predict(corpus), probs) << "step " << s;
    mls::GnnMlsEngine twin(cfg);
    for (std::size_t t = 0; t <= s; ++t) steps[t](twin);
    EXPECT_EQ(twin.inference().predict(corpus), probs) << "step " << s;
    if (s > 0) {
      EXPECT_NE(probs, previous) << "step " << s << " left the predictions as they were";
    }
    previous = probs;
  }
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

  // SIMD-level sweep: the scalar float32 kernels land on the same decisions.
  const ml::SimdLevel prev = ml::set_simd_for_test(ml::SimdLevel::kScalar);
  EXPECT_EQ(fx.decide(batched), ref);
  ml::set_simd_for_test(prev);
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

  // Re-evaluate the unchanged design: the decide pass's skip-if-fresh (keyed
  // on the engine's weights_version()) serves the warm decide, the decisions
  // are identical, and the PPA row matches the cold twin bit for bit.
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

  // Flow-level ECO: grow the netlist, then re-decide. The decide pass's
  // inputs moved, so it runs again on the grown design; the flow completes
  // cleanly, and the flags vector tracks the new net count.
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
