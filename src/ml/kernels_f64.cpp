#include "ml/kernels_f64.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GNNMLS_X86 1
#endif

namespace gnnmls::ml::detail {

namespace {

// C(m x n) = sum over kk of A(i, kk) * B(kk, j), with A(i, kk) at
// a[i * a_rs + kk * a_cs]: each element starts at +0.0 and adds its terms in
// ascending kk. skip_zeros leaves out the terms whose A entry is zero.
void gemm_strided(bool skip_zeros, int m, int k, int n, const double* a, std::ptrdiff_t a_rs,
                  std::ptrdiff_t a_cs, const double* b, int ldb, double* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    const double* ai = a + i * a_rs;
    double* crow = c + static_cast<std::ptrdiff_t>(i) * ldc;
    for (int j = 0; j < n; ++j) crow[j] = 0.0;
    for (int kk = 0; kk < k; ++kk) {
      const double av = ai[kk * a_cs];
      if (skip_zeros && av == 0.0) continue;
      const double* brow = b + static_cast<std::ptrdiff_t>(kk) * ldb;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

inline void adam_one(const AdamStep& s, double g, double& m, double& v, double& w) {
  m = s.beta1 * m + (1.0 - s.beta1) * g;
  v = s.beta2 * v + (1.0 - s.beta2) * g * g;
  const double mhat = m / s.bc1;
  const double vhat = v / s.bc2;
  w -= s.lr * mhat / (std::sqrt(vhat) + s.eps);
}

}  // namespace

// ---- portable scalar kernels ------------------------------------------------

void dgemm_scalar(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                  double* c, int ldc) {
  gemm_strided(true, m, k, n, a, lda, 1, b, ldb, c, ldc);
}

void dgemm_tn_scalar(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                     double* c, int ldc) {
  gemm_strided(true, m, k, n, a, 1, lda, b, ldb, c, ldc);
}

void dgemm_nt_scalar(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                     double* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<std::ptrdiff_t>(i) * lda;
    double* crow = c + static_cast<std::ptrdiff_t>(i) * ldc;
    for (int j = 0; j < n; ++j) {
      const double* brow = b + static_cast<std::ptrdiff_t>(j) * ldb;
      double s = 0.0;
      for (int kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
      crow[j] = s;
    }
  }
}

void dgemm_dense_scalar(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                        double* c, int ldc) {
  gemm_strided(false, m, k, n, a, lda, 1, b, ldb, c, ldc);
}

void dtranspose_scalar(int n, int k, const double* b, int ldb, double* bt) {
  for (int j = 0; j < n; ++j)
    for (int kk = 0; kk < k; ++kk)
      bt[static_cast<std::ptrdiff_t>(kk) * n + j] = b[static_cast<std::ptrdiff_t>(j) * ldb + kk];
}

void adam_scalar(std::size_t count, const AdamStep& s, const double* g, double* m, double* v,
                 double* w) {
  for (std::size_t j = 0; j < count; ++j) adam_one(s, g[j], m[j], v[j], w[j]);
}

// ---- AVX2 kernels (no FMA) --------------------------------------------------

#ifdef GNNMLS_X86

namespace {

// One row of C over a panel of NV ymm vectors (4 doubles each); with
// kMasked the last vector covers only its first `lanes` columns. Each lane
// is an accumulator that starts at +0.0 and adds mul(A(i, kk), B(kk, j)) in
// ascending kk, as gemm_strided does. With kSkipZeros a k step whose A
// entry is zero is skipped, as gemm_strided skips it (0 * inf included).
// Branching beats masking the products to +0.0: it saves the mask op per
// vector on dense panels, and skips the work of the zeros that make up
// about half of a ReLU output.
template <int NV, bool kSkipZeros, bool kMasked>
__attribute__((target("avx2"))) void row_panel(int k, const double* ai, std::ptrdiff_t a_cs,
                                               const double* b, std::ptrdiff_t ldb, double* c,
                                               int lanes) {
  const __m256i last =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes), _mm256_setr_epi64x(0, 1, 2, 3));
  __m256d acc[NV];
#pragma GCC unroll 12
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
  for (int kk = 0; kk < k; ++kk) {
    const double a = ai[kk * a_cs];
    if (kSkipZeros && a == 0.0) continue;
    const __m256d av = _mm256_set1_pd(a);
    const double* brow = b + kk * ldb;
#pragma GCC unroll 12
    for (int v = 0; v < NV; ++v) {
      const __m256d bv = (kMasked && v + 1 == NV) ? _mm256_maskload_pd(brow + 4 * v, last)
                                                  : _mm256_loadu_pd(brow + 4 * v);
      acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(av, bv));
    }
  }
#pragma GCC unroll 12
  for (int v = 0; v < NV; ++v) {
    if (kMasked && v + 1 == NV)
      _mm256_maskstore_pd(c + 4 * v, last, acc[v]);
    else
      _mm256_storeu_pd(c + 4 * v, acc[v]);
  }
}

using PanelFn = void (*)(int, const double*, std::ptrdiff_t, const double*, std::ptrdiff_t,
                         double*, int);
constexpr int kMaxVecs = 12;  // 48 columns: 12 accumulators + av + keep + product

template <bool kSkipZeros, bool kMasked, int... I>
constexpr std::array<PanelFn, sizeof...(I)> panel_table(std::integer_sequence<int, I...>) {
  return {&row_panel<I + 1, kSkipZeros, kMasked>...};
}

// Column panels outermost, so one panel of B stays in L1 across the rows.
template <bool kSkipZeros>
__attribute__((target("avx2"))) void run_panels(int m, int k, int n, const double* a,
                                                std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                                                const double* b, int ldb, double* c, int ldc) {
  static constexpr auto kFull =
      panel_table<kSkipZeros, false>(std::make_integer_sequence<int, kMaxVecs>{});
  static constexpr auto kTail =
      panel_table<kSkipZeros, true>(std::make_integer_sequence<int, kMaxVecs>{});
  for (int j0 = 0; j0 < n; j0 += 4 * kMaxVecs) {
    const int cols = std::min(4 * kMaxVecs, n - j0);
    const int vecs = (cols + 3) / 4;
    const int lanes = cols - 4 * (vecs - 1);
    const PanelFn fn = lanes == 4 ? kFull[vecs - 1] : kTail[vecs - 1];
    for (int i = 0; i < m; ++i)
      fn(k, a + i * a_rs, a_cs, b + j0, ldb, c + static_cast<std::ptrdiff_t>(i) * ldc + j0,
         lanes);
  }
}

}  // namespace

// In 4 x 4 register blocks.
__attribute__((target("avx2"))) void dtranspose_avx2(int n, int k, const double* b, int ldb,
                                                     double* bt) {
  int j0 = 0;
  for (; j0 + 4 <= n; j0 += 4) {
    const double* r = b + static_cast<std::ptrdiff_t>(j0) * ldb;
    int k0 = 0;
    for (; k0 + 4 <= k; k0 += 4) {
      const __m256d r0 = _mm256_loadu_pd(r + k0);
      const __m256d r1 = _mm256_loadu_pd(r + ldb + k0);
      const __m256d r2 = _mm256_loadu_pd(r + 2 * static_cast<std::ptrdiff_t>(ldb) + k0);
      const __m256d r3 = _mm256_loadu_pd(r + 3 * static_cast<std::ptrdiff_t>(ldb) + k0);
      const __m256d t0 = _mm256_unpacklo_pd(r0, r1);
      const __m256d t1 = _mm256_unpackhi_pd(r0, r1);
      const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
      const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
      double* out = bt + static_cast<std::ptrdiff_t>(k0) * n + j0;
      const std::ptrdiff_t n1 = n;
      _mm256_storeu_pd(out, _mm256_permute2f128_pd(t0, t2, 0x20));
      _mm256_storeu_pd(out + n1, _mm256_permute2f128_pd(t1, t3, 0x20));
      _mm256_storeu_pd(out + 2 * n1, _mm256_permute2f128_pd(t0, t2, 0x31));
      _mm256_storeu_pd(out + 3 * n1, _mm256_permute2f128_pd(t1, t3, 0x31));
    }
    for (; k0 < k; ++k0)
      for (int q = 0; q < 4; ++q)
        bt[static_cast<std::ptrdiff_t>(k0) * n + j0 + q] =
            r[static_cast<std::ptrdiff_t>(q) * ldb + k0];
  }
  for (; j0 < n; ++j0)
    for (int kk = 0; kk < k; ++kk)
      bt[static_cast<std::ptrdiff_t>(kk) * n + j0] = b[static_cast<std::ptrdiff_t>(j0) * ldb + kk];
}

void dgemm_avx2(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                double* c, int ldc) {
  run_panels<true>(m, k, n, a, lda, 1, b, ldb, c, ldc);
}

void dgemm_tn_avx2(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                   double* c, int ldc) {
  run_panels<true>(m, k, n, a, 1, lda, b, ldb, c, ldc);
}

namespace {

// Bᵀ (k x n) in a per-thread buffer that keeps its storage between calls.
double* transposed(int n, int k, const double* b, int ldb) {
  thread_local std::vector<double> bt;
  bt.resize(static_cast<std::size_t>(k) * static_cast<std::size_t>(n));
  dtranspose_avx2(n, k, b, ldb, bt.data());
  return bt.data();
}

}  // namespace

// A · Bᵀ as A · (Bᵀ): the transposed copy makes each output row a
// broadcast-multiply over contiguous columns while every element still sums
// its k terms in ascending order, with no zero skip.
void dgemm_nt_avx2(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                   double* c, int ldc) {
  dgemm_dense_avx2(m, k, n, a, lda, transposed(n, k, b, ldb), n, c, ldc);
}

void dgemm_dense_avx2(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                      double* c, int ldc) {
  run_panels<false>(m, k, n, a, lda, 1, b, ldb, c, ldc);
}

__attribute__((target("avx2"))) void adam_avx2(std::size_t count, const AdamStep& s,
                                               const double* g, double* m, double* v,
                                               double* w) {
  const __m256d beta1 = _mm256_set1_pd(s.beta1);
  const __m256d beta2 = _mm256_set1_pd(s.beta2);
  const __m256d one_m_beta1 = _mm256_set1_pd(1.0 - s.beta1);
  const __m256d one_m_beta2 = _mm256_set1_pd(1.0 - s.beta2);
  const __m256d bc1 = _mm256_set1_pd(s.bc1);
  const __m256d bc2 = _mm256_set1_pd(s.bc2);
  const __m256d lr = _mm256_set1_pd(s.lr);
  const __m256d eps = _mm256_set1_pd(s.eps);
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m256d gv = _mm256_loadu_pd(g + j);
    const __m256d mv = _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + j)),
                                     _mm256_mul_pd(one_m_beta1, gv));
    const __m256d vv = _mm256_add_pd(_mm256_mul_pd(beta2, _mm256_loadu_pd(v + j)),
                                     _mm256_mul_pd(_mm256_mul_pd(one_m_beta2, gv), gv));
    _mm256_storeu_pd(m + j, mv);
    _mm256_storeu_pd(v + j, vv);
    const __m256d mhat = _mm256_div_pd(mv, bc1);
    const __m256d vhat = _mm256_div_pd(vv, bc2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat), _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(w + j, _mm256_sub_pd(_mm256_loadu_pd(w + j), step));
  }
  for (; j < count; ++j) adam_one(s, g[j], m[j], v[j], w[j]);
}

// ---- AVX-512 kernels (no FMA) -----------------------------------------------

namespace {

// R rows of C (4, or 1 for the last m % 4 rows) over a panel of NV zmm
// vectors (8 doubles each); the last vector covers only the lanes set in
// `tail` (all 8 for a full panel: a masked load or store with every lane
// set costs what an unmasked one does). One B load per k step feeds all R
// rows: 24 accumulators, the B vector, the product and the broadcasts fit
// the 32 zmm registers, so B traffic is a quarter of a single-row panel's.
//
// Each lane is an accumulator that starts at +0.0 and adds mul(A(i, kk),
// B(kk, j)) in ascending kk, as gemm_strided does. avx512f has FMA
// instructions, so -ffp-contract=off is what keeps the mul and the add
// apart here.
//
// With kSkipZeros a zero A entry's product is masked to +0.0
// (_mm512_maskz_mul_pd) instead of branched around: the R rows share each k
// step, and a branch per entry mispredicts on ReLU outputs. Adding +0.0
// gives the same bits as skipping the term. The accumulator starts at +0.0,
// and under round-to-nearest a sum is -0.0 only when both addends are, so
// it never holds -0.0, and acc + (+0.0) keeps acc's bits for every value it
// can hold, inf and NaN included. The mask also keeps 0 * inf and 0 * NaN
// out, as the skip does; a NaN A entry compares unequal to zero and is
// kept, as in gemm_strided.
template <int R, int NV, bool kSkipZeros>
__attribute__((target("avx512f"))) void block_avx512(int k, const double* a, std::ptrdiff_t a_rs,
                                                     std::ptrdiff_t a_cs, const double* b,
                                                     std::ptrdiff_t ldb, double* c,
                                                     std::ptrdiff_t ldc, __mmask8 tail) {
  __m512d acc[R][NV];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 6
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_pd();
  for (int kk = 0; kk < k; ++kk) {
    const double* ak = a + kk * a_cs;
    __m512d av[R];
    __mmask8 keep[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      av[r] = _mm512_set1_pd(ak[r * a_rs]);
      if (kSkipZeros) keep[r] = _mm512_cmp_pd_mask(av[r], _mm512_setzero_pd(), _CMP_NEQ_UQ);
    }
    const double* brow = b + kk * ldb;
#pragma GCC unroll 6
    for (int v = 0; v < NV; ++v) {
      const __m512d bv = v + 1 == NV ? _mm512_maskz_loadu_pd(tail, brow + 8 * v)
                                     : _mm512_loadu_pd(brow + 8 * v);
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const __m512d p =
            kSkipZeros ? _mm512_maskz_mul_pd(keep[r], av[r], bv) : _mm512_mul_pd(av[r], bv);
        acc[r][v] = _mm512_add_pd(acc[r][v], p);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 6
    for (int v = 0; v < NV; ++v) {
      double* out = c + r * ldc + 8 * v;
      if (v + 1 == NV)
        _mm512_mask_storeu_pd(out, tail, acc[r][v]);
      else
        _mm512_storeu_pd(out, acc[r][v]);
    }
}

using BlockFn = void (*)(int, const double*, std::ptrdiff_t, std::ptrdiff_t, const double*,
                         std::ptrdiff_t, double*, std::ptrdiff_t, __mmask8);
constexpr int kMaxZmm = 6;  // 48 columns

template <int R, bool kSkipZeros, int... I>
constexpr std::array<BlockFn, sizeof...(I)> block_table(std::integer_sequence<int, I...>) {
  return {&block_avx512<R, I + 1, kSkipZeros>...};
}

// Column panels outermost, so one panel of B stays in L1 across the rows.
template <bool kSkipZeros>
void run_blocks(int m, int k, int n, const double* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                const double* b, int ldb, double* c, int ldc) {
  constexpr auto kVecs = std::make_integer_sequence<int, kMaxZmm>{};
  static constexpr std::array<BlockFn, kMaxZmm> kFour = block_table<4, kSkipZeros>(kVecs);
  static constexpr std::array<BlockFn, kMaxZmm> kOne = block_table<1, kSkipZeros>(kVecs);
  for (int j0 = 0; j0 < n; j0 += 8 * kMaxZmm) {
    const int cols = std::min(8 * kMaxZmm, n - j0);
    const int vecs = (cols + 7) / 8;
    const int lanes = cols - 8 * (vecs - 1);
    const auto tail = static_cast<__mmask8>((1u << lanes) - 1u);
    const BlockFn four = kFour[vecs - 1];
    const BlockFn one = kOne[vecs - 1];
    int i = 0;
    for (; i + 4 <= m; i += 4)
      four(k, a + i * a_rs, a_rs, a_cs, b + j0, ldb, c + static_cast<std::ptrdiff_t>(i) * ldc + j0,
           ldc, tail);
    for (; i < m; ++i)
      one(k, a + i * a_rs, a_rs, a_cs, b + j0, ldb, c + static_cast<std::ptrdiff_t>(i) * ldc + j0,
          ldc, tail);
  }
}

}  // namespace

void dgemm_avx512(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                  double* c, int ldc) {
  run_blocks<true>(m, k, n, a, lda, 1, b, ldb, c, ldc);
}

void dgemm_tn_avx512(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                     double* c, int ldc) {
  run_blocks<true>(m, k, n, a, 1, lda, b, ldb, c, ldc);
}

void dgemm_nt_avx512(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                     double* c, int ldc) {
  dgemm_dense_avx512(m, k, n, a, lda, transposed(n, k, b, ldb), n, c, ldc);
}

void dgemm_dense_avx512(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                        double* c, int ldc) {
  run_blocks<false>(m, k, n, a, lda, 1, b, ldb, c, ldc);
}

#endif  // GNNMLS_X86

}  // namespace gnnmls::ml::detail
