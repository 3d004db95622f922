#include "ml/kernels.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GNNMLS_X86 1
#endif

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/log.hpp"

namespace gnnmls::ml {

const char* to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2: return "avx2";
  }
  return "unknown";
}

// ---- portable scalar kernels ------------------------------------------------

namespace {

void gemm_scalar(int m, int k, int n, const float* a, const float* b, float* c,
                 bool accumulate) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    if (!accumulate)
      for (int j = 0; j < n; ++j) crow[j] = 0.0f;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // padded rows / sparse adjacency skip
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt_scalar(int m, int k, int n, const float* a, const float* b, float* c,
                    bool accumulate) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      float acc = 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      if (accumulate)
        crow[j] += acc;
      else
        crow[j] = acc;
    }
  }
}

void softmax_rows_scalar(int m, int n, float* x) {
  for (int i = 0; i < m; ++i) {
    float* row = x + static_cast<std::size_t>(i) * n;
    float mx = row[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (int j = 0; j < n; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (int j = 0; j < n; ++j) row[j] *= inv;
  }
}

void relu_scalar(std::size_t count, float* x) {
  for (std::size_t i = 0; i < count; ++i) x[i] = x[i] < 0.0f ? 0.0f : x[i];
}

void bias_relu_rows_scalar(int m, int n, const float* bias, float* x) {
  for (int i = 0; i < m; ++i) {
    float* row = x + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float v = row[j] + bias[j];
      row[j] = v < 0.0f ? 0.0f : v;
    }
  }
}

void layernorm_rows_scalar(int m, int n, const float* x, const float* gamma, const float* beta,
                           float eps, float* y) {
  for (int i = 0; i < m; ++i) {
    const float* row = x + static_cast<std::size_t>(i) * n;
    float* out = y + static_cast<std::size_t>(i) * n;
    float mean = 0.0f;
    for (int j = 0; j < n; ++j) mean += row[j];
    mean /= static_cast<float>(n);
    float var = 0.0f;
    for (int j = 0; j < n; ++j) var += (row[j] - mean) * (row[j] - mean);
    var /= static_cast<float>(n);
    const float inv = 1.0f / std::sqrt(var + eps);
    for (int j = 0; j < n; ++j) out[j] = (row[j] - mean) * inv * gamma[j] + beta[j];
  }
}

void attention_scalar(int n, int d, int heads, const float* q, const float* kmat,
                      const float* v, int qkv_stride, const float* adj, int adj_stride,
                      const float* edge_bias, float scale, float* scores, float* out,
                      int out_stride) {
  const int hd = d / heads;
  for (int h = 0; h < heads; ++h) {
    const int off = h * hd;
    const float bias = edge_bias[h];
    for (int i = 0; i < n; ++i) {
      const float* qi = q + static_cast<std::size_t>(i) * qkv_stride + off;
      const float* arow = adj + static_cast<std::size_t>(i) * adj_stride;
      float* srow = scores + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) {
        const float* kj = kmat + static_cast<std::size_t>(j) * qkv_stride + off;
        float acc = 0.0f;
        for (int t = 0; t < hd; ++t) acc += qi[t] * kj[t];
        srow[j] = acc * scale + bias * arow[j];
      }
    }
    softmax_rows_scalar(n, n, scores);
    for (int i = 0; i < n; ++i) {
      const float* srow = scores + static_cast<std::size_t>(i) * n;
      float* orow = out + static_cast<std::size_t>(i) * out_stride + off;
      for (int t = 0; t < hd; ++t) orow[t] = 0.0f;
      for (int j = 0; j < n; ++j) {
        const float sv = srow[j];
        const float* vj = v + static_cast<std::size_t>(j) * qkv_stride + off;
        for (int t = 0; t < hd; ++t) orow[t] += sv * vj[t];
      }
    }
  }
}

constexpr Kernels kScalarKernels{gemm_scalar,          gemm_nt_scalar,  softmax_rows_scalar,
                                 relu_scalar,          bias_relu_rows_scalar,
                                 layernorm_rows_scalar, attention_scalar};

// ---- AVX2 + FMA kernels -----------------------------------------------------

#ifdef GNNMLS_X86

// Broadcast-FMA gemm, register-blocked over column panels of 48 (6 ymm) and
// row pairs: each B row load feeds two FMA streams (12 accumulators + the B
// vector + two broadcasts = 15 of 16 ymm), so for the engine's shapes
// (n = dim 48 / ffn 96) C traffic happens once per panel, not per (row, k),
// and B bandwidth is halved relative to a single-row kernel.
__attribute__((target("avx2,fma"))) void gemm_avx2(int m, int k, int n, const float* a,
                                                   const float* b, float* c, bool accumulate) {
  // 4-row x 24-column microkernel: 12 ymm accumulators fed by 3 B loads and
  // 4 broadcasts per k step — 12 FMAs per 7 loads, so the FMA ports (not the
  // load ports) are the bottleneck. The model's widths (144/96/48/24) are
  // all multiples of 24; other widths fall through to the 8-wide and scalar
  // column tails below.
  constexpr int kPanel = 24;
  int j0 = 0;
  for (; j0 + kPanel <= n; j0 += kPanel) {
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = a + static_cast<std::size_t>(i) * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      float* c0 = c + static_cast<std::size_t>(i) * n + j0;
      float* c1 = c0 + n;
      float* c2 = c1 + n;
      float* c3 = c2 + n;
      __m256 r00, r01, r02, r10, r11, r12, r20, r21, r22, r30, r31, r32;
      if (accumulate) {
        r00 = _mm256_loadu_ps(c0);
        r01 = _mm256_loadu_ps(c0 + 8);
        r02 = _mm256_loadu_ps(c0 + 16);
        r10 = _mm256_loadu_ps(c1);
        r11 = _mm256_loadu_ps(c1 + 8);
        r12 = _mm256_loadu_ps(c1 + 16);
        r20 = _mm256_loadu_ps(c2);
        r21 = _mm256_loadu_ps(c2 + 8);
        r22 = _mm256_loadu_ps(c2 + 16);
        r30 = _mm256_loadu_ps(c3);
        r31 = _mm256_loadu_ps(c3 + 8);
        r32 = _mm256_loadu_ps(c3 + 16);
      } else {
        r00 = r01 = r02 = r10 = r11 = r12 = _mm256_setzero_ps();
        r20 = r21 = r22 = r30 = r31 = r32 = _mm256_setzero_ps();
      }
      for (int kk = 0; kk < k; ++kk) {
        const float* brow = b + static_cast<std::size_t>(kk) * n + j0;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const __m256 b2 = _mm256_loadu_ps(brow + 16);
        __m256 av = _mm256_set1_ps(a0[kk]);
        r00 = _mm256_fmadd_ps(av, b0, r00);
        r01 = _mm256_fmadd_ps(av, b1, r01);
        r02 = _mm256_fmadd_ps(av, b2, r02);
        av = _mm256_set1_ps(a1[kk]);
        r10 = _mm256_fmadd_ps(av, b0, r10);
        r11 = _mm256_fmadd_ps(av, b1, r11);
        r12 = _mm256_fmadd_ps(av, b2, r12);
        av = _mm256_set1_ps(a2[kk]);
        r20 = _mm256_fmadd_ps(av, b0, r20);
        r21 = _mm256_fmadd_ps(av, b1, r21);
        r22 = _mm256_fmadd_ps(av, b2, r22);
        av = _mm256_set1_ps(a3[kk]);
        r30 = _mm256_fmadd_ps(av, b0, r30);
        r31 = _mm256_fmadd_ps(av, b1, r31);
        r32 = _mm256_fmadd_ps(av, b2, r32);
      }
      _mm256_storeu_ps(c0, r00);
      _mm256_storeu_ps(c0 + 8, r01);
      _mm256_storeu_ps(c0 + 16, r02);
      _mm256_storeu_ps(c1, r10);
      _mm256_storeu_ps(c1 + 8, r11);
      _mm256_storeu_ps(c1 + 16, r12);
      _mm256_storeu_ps(c2, r20);
      _mm256_storeu_ps(c2 + 8, r21);
      _mm256_storeu_ps(c2 + 16, r22);
      _mm256_storeu_ps(c3, r30);
      _mm256_storeu_ps(c3 + 8, r31);
      _mm256_storeu_ps(c3 + 16, r32);
    }
    for (; i < m; ++i) {  // trailing rows (m % 4)
      const float* a0 = a + static_cast<std::size_t>(i) * k;
      float* c0 = c + static_cast<std::size_t>(i) * n + j0;
      __m256 r0, r1, r2;
      if (accumulate) {
        r0 = _mm256_loadu_ps(c0);
        r1 = _mm256_loadu_ps(c0 + 8);
        r2 = _mm256_loadu_ps(c0 + 16);
      } else {
        r0 = r1 = r2 = _mm256_setzero_ps();
      }
      for (int kk = 0; kk < k; ++kk) {
        const float* brow = b + static_cast<std::size_t>(kk) * n + j0;
        const __m256 av = _mm256_set1_ps(a0[kk]);
        r0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), r0);
        r1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), r1);
        r2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 16), r2);
      }
      _mm256_storeu_ps(c0, r0);
      _mm256_storeu_ps(c0 + 8, r1);
      _mm256_storeu_ps(c0 + 16, r2);
    }
  }
  for (; j0 + 8 <= n; j0 += 8) {  // 8-wide column tail
    int i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = a + static_cast<std::size_t>(i) * k;
      const float* a1 = a0 + k;
      const float* a2 = a1 + k;
      const float* a3 = a2 + k;
      float* c0 = c + static_cast<std::size_t>(i) * n + j0;
      float* c1 = c0 + n;
      float* c2 = c1 + n;
      float* c3 = c2 + n;
      __m256 r0 = accumulate ? _mm256_loadu_ps(c0) : _mm256_setzero_ps();
      __m256 r1 = accumulate ? _mm256_loadu_ps(c1) : _mm256_setzero_ps();
      __m256 r2 = accumulate ? _mm256_loadu_ps(c2) : _mm256_setzero_ps();
      __m256 r3 = accumulate ? _mm256_loadu_ps(c3) : _mm256_setzero_ps();
      for (int kk = 0; kk < k; ++kk) {
        const __m256 bv = _mm256_loadu_ps(b + static_cast<std::size_t>(kk) * n + j0);
        r0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[kk]), bv, r0);
        r1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[kk]), bv, r1);
        r2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[kk]), bv, r2);
        r3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[kk]), bv, r3);
      }
      _mm256_storeu_ps(c0, r0);
      _mm256_storeu_ps(c1, r1);
      _mm256_storeu_ps(c2, r2);
      _mm256_storeu_ps(c3, r3);
    }
    for (; i < m; ++i) {
      const float* a0 = a + static_cast<std::size_t>(i) * k;
      float* c0 = c + static_cast<std::size_t>(i) * n + j0;
      __m256 r0 = accumulate ? _mm256_loadu_ps(c0) : _mm256_setzero_ps();
      for (int kk = 0; kk < k; ++kk)
        r0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[kk]),
                             _mm256_loadu_ps(b + static_cast<std::size_t>(kk) * n + j0), r0);
      _mm256_storeu_ps(c0, r0);
    }
  }
  for (int i = 0; i < m && j0 < n; ++i) {  // scalar tail columns
    const float* a0 = a + static_cast<std::size_t>(i) * k;
    float* c0 = c + static_cast<std::size_t>(i) * n;
    for (int j = j0; j < n; ++j) {
      float s = accumulate ? c0[j] : 0.0f;
      for (int kk = 0; kk < k; ++kk) s += a0[kk] * b[static_cast<std::size_t>(kk) * n + j];
      c0[j] = s;
    }
  }
}

__attribute__((target("avx2,fma"))) inline float hsum8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

__attribute__((target("avx2,fma"))) void gemm_nt_avx2(int m, int k, int n, const float* a,
                                                      const float* b, float* c,
                                                      bool accumulate) {
  const int k8 = k & ~7;
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * k;
      __m256 acc = _mm256_setzero_ps();
      int kk = 0;
      for (; kk < k8; kk += 8)
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + kk), _mm256_loadu_ps(brow + kk), acc);
      float dot = hsum8(acc);
      for (; kk < k; ++kk) dot += arow[kk] * brow[kk];
      if (accumulate)
        crow[j] += dot;
      else
        crow[j] = dot;
    }
  }
}

// Vectorized exp for softmax: exp(x) = 2^r * 2^f with r = round(x*log2e),
// f in [-0.5, 0.5] approximated by a degree-5 polynomial (max relative
// error ~2e-7 — well inside the engine's scalar-vs-avx2 parity tolerance).
__attribute__((target("avx2,fma"))) inline __m256 exp8(__m256 x) {
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-87.336548f)), _mm256_set1_ps(88.376263f));
  const __m256 t = _mm256_mul_ps(x, _mm256_set1_ps(1.4426950408889634f));
  const __m256 r = _mm256_round_ps(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256 f = _mm256_sub_ps(t, r);
  __m256 p = _mm256_set1_ps(1.8775767e-3f);
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(8.9893397e-3f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(5.5826318e-2f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(2.4015361e-1f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(6.9315308e-1f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(9.9999994e-1f));
  const __m256i e = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(r), _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(e));
}

__attribute__((target("avx2,fma"))) void softmax_rows_avx2(int m, int n, float* x) {
  const int n8 = n & ~7;
  for (int i = 0; i < m; ++i) {
    float* row = x + static_cast<std::size_t>(i) * n;
    float mx = -std::numeric_limits<float>::infinity();
    int j = 0;
    if (n8 > 0) {
      __m256 mxv = _mm256_set1_ps(mx);
      for (; j < n8; j += 8) mxv = _mm256_max_ps(mxv, _mm256_loadu_ps(row + j));
      __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(mxv), _mm256_extractf128_ps(mxv, 1));
      m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
      m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 0x55));
      mx = _mm_cvtss_f32(m4);
    }
    for (; j < n; ++j) mx = std::max(mx, row[j]);
    const __m256 mxb = _mm256_set1_ps(mx);
    __m256 sumv = _mm256_setzero_ps();
    j = 0;
    for (; j < n8; j += 8) {
      const __m256 e = exp8(_mm256_sub_ps(_mm256_loadu_ps(row + j), mxb));
      _mm256_storeu_ps(row + j, e);
      sumv = _mm256_add_ps(sumv, e);
    }
    float sum = hsum8(sumv);
    for (; j < n; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    const __m256 invv = _mm256_set1_ps(inv);
    j = 0;
    for (; j < n8; j += 8) _mm256_storeu_ps(row + j, _mm256_mul_ps(_mm256_loadu_ps(row + j), invv));
    for (; j < n; ++j) row[j] *= inv;
  }
}

__attribute__((target("avx2,fma"))) void relu_avx2(std::size_t count, float* x) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) _mm256_storeu_ps(x + i, _mm256_max_ps(_mm256_loadu_ps(x + i), zero));
  for (; i < count; ++i) x[i] = x[i] < 0.0f ? 0.0f : x[i];
}

__attribute__((target("avx2,fma"))) void bias_relu_rows_avx2(int m, int n, const float* bias,
                                                             float* x) {
  const __m256 zero = _mm256_setzero_ps();
  const int n8 = n & ~7;
  for (int i = 0; i < m; ++i) {
    float* row = x + static_cast<std::size_t>(i) * n;
    int j = 0;
    for (; j < n8; j += 8)
      _mm256_storeu_ps(row + j, _mm256_max_ps(
          _mm256_add_ps(_mm256_loadu_ps(row + j), _mm256_loadu_ps(bias + j)), zero));
    for (; j < n; ++j) {
      const float v = row[j] + bias[j];
      row[j] = v < 0.0f ? 0.0f : v;
    }
  }
}

__attribute__((target("avx2,fma"))) void layernorm_rows_avx2(int m, int n, const float* x,
                                                             const float* gamma,
                                                             const float* beta, float eps,
                                                             float* y) {
  const int n8 = n & ~7;
  for (int i = 0; i < m; ++i) {
    const float* row = x + static_cast<std::size_t>(i) * n;
    float* out = y + static_cast<std::size_t>(i) * n;
    __m256 msum = _mm256_setzero_ps();
    int j = 0;
    for (; j < n8; j += 8) msum = _mm256_add_ps(msum, _mm256_loadu_ps(row + j));
    float mean = hsum8(msum);
    for (; j < n; ++j) mean += row[j];
    mean /= static_cast<float>(n);
    const __m256 meanv = _mm256_set1_ps(mean);
    __m256 vsum = _mm256_setzero_ps();
    j = 0;
    for (; j < n8; j += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(row + j), meanv);
      vsum = _mm256_fmadd_ps(d, d, vsum);
    }
    float var = hsum8(vsum);
    for (; j < n; ++j) var += (row[j] - mean) * (row[j] - mean);
    var /= static_cast<float>(n);
    const float inv = 1.0f / std::sqrt(var + eps);
    const __m256 invv = _mm256_set1_ps(inv);
    j = 0;
    for (; j < n8; j += 8) {
      const __m256 xh = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(row + j), meanv), invv);
      _mm256_storeu_ps(out + j,
                       _mm256_fmadd_ps(xh, _mm256_loadu_ps(gamma + j), _mm256_loadu_ps(beta + j)));
    }
    for (; j < n; ++j) out[j] = (row[j] - mean) * inv * gamma[j] + beta[j];
  }
}

__attribute__((target("avx2,fma"))) void attention_avx2(int n, int d, int heads,
                                                        const float* q, const float* kmat,
                                                        const float* v, int qkv_stride,
                                                        const float* adj, int adj_stride,
                                                        const float* edge_bias, float scale,
                                                        float* scores, float* out,
                                                        int out_stride) {
  const int hd = d / heads;
  const int h8 = hd & ~7;
  // Transposed key slice: scores rows then vectorize across the j (key)
  // dimension with broadcast-FMA instead of per-element dots + horizontal
  // sums. 64 x 256 covers every model this engine serves (head_dim x
  // max_len); larger shapes take the generic dot path below.
  constexpr int kMaxHd = 64, kMaxN = 256;
  float kt[kMaxHd * kMaxN];
  const bool transposed = hd <= kMaxHd && n <= kMaxN;
  for (int h = 0; h < heads; ++h) {
    const int off = h * hd;
    const float bias = edge_bias[h];
    if (transposed) {
      for (int j = 0; j < n; ++j) {
        const float* kj = kmat + static_cast<std::size_t>(j) * qkv_stride + off;
        for (int t = 0; t < hd; ++t) kt[t * n + j] = kj[t];
      }
      const __m256 scalev = _mm256_set1_ps(scale);
      const __m256 biasv = _mm256_set1_ps(bias);
      for (int i = 0; i < n; ++i) {
        const float* qi = q + static_cast<std::size_t>(i) * qkv_stride + off;
        const float* arow = adj + static_cast<std::size_t>(i) * adj_stride;
        float* srow = scores + static_cast<std::size_t>(i) * n;
        int j = 0;
        for (; j + 16 <= n; j += 16) {  // two accumulator chains for ILP
          __m256 acc0 = _mm256_setzero_ps();
          __m256 acc1 = _mm256_setzero_ps();
          for (int t = 0; t < hd; ++t) {
            const __m256 qv = _mm256_set1_ps(qi[t]);
            const float* krow = kt + t * n + j;
            acc0 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(krow), acc0);
            acc1 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(krow + 8), acc1);
          }
          _mm256_storeu_ps(srow + j, _mm256_fmadd_ps(biasv, _mm256_loadu_ps(arow + j),
                                                     _mm256_mul_ps(acc0, scalev)));
          _mm256_storeu_ps(srow + j + 8, _mm256_fmadd_ps(biasv, _mm256_loadu_ps(arow + j + 8),
                                                         _mm256_mul_ps(acc1, scalev)));
        }
        for (; j + 8 <= n; j += 8) {
          __m256 acc0 = _mm256_setzero_ps();
          for (int t = 0; t < hd; ++t)
            acc0 = _mm256_fmadd_ps(_mm256_set1_ps(qi[t]), _mm256_loadu_ps(kt + t * n + j), acc0);
          _mm256_storeu_ps(srow + j, _mm256_fmadd_ps(biasv, _mm256_loadu_ps(arow + j),
                                                     _mm256_mul_ps(acc0, scalev)));
        }
        for (; j < n; ++j) {
          float dot = 0.0f;
          for (int t = 0; t < hd; ++t) dot += qi[t] * kt[t * n + j];
          srow[j] = dot * scale + bias * arow[j];
        }
      }
    } else {
      for (int i = 0; i < n; ++i) {
        const float* qi = q + static_cast<std::size_t>(i) * qkv_stride + off;
        const float* arow = adj + static_cast<std::size_t>(i) * adj_stride;
        float* srow = scores + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) {
          const float* kj = kmat + static_cast<std::size_t>(j) * qkv_stride + off;
          __m256 acc = _mm256_setzero_ps();
          int t = 0;
          for (; t < h8; t += 8)
            acc = _mm256_fmadd_ps(_mm256_loadu_ps(qi + t), _mm256_loadu_ps(kj + t), acc);
          float dot = hsum8(acc);
          for (; t < hd; ++t) dot += qi[t] * kj[t];
          srow[j] = dot * scale + bias * arow[j];
        }
      }
    }
    softmax_rows_avx2(n, n, scores);
    if (h8 == hd && hd <= 64) {
      // Head slice fits ymm accumulators: broadcast-FMA over the value rows.
      const int hv = hd / 8;
      for (int i = 0; i < n; ++i) {
        const float* srow = scores + static_cast<std::size_t>(i) * n;
        float* orow = out + static_cast<std::size_t>(i) * out_stride + off;
        __m256 acc[8];
        for (int t = 0; t < hv; ++t) acc[t] = _mm256_setzero_ps();
        for (int j = 0; j < n; ++j) {
          const __m256 sv = _mm256_set1_ps(srow[j]);
          const float* vj = v + static_cast<std::size_t>(j) * qkv_stride + off;
          for (int t = 0; t < hv; ++t)
            acc[t] = _mm256_fmadd_ps(sv, _mm256_loadu_ps(vj + 8 * t), acc[t]);
        }
        for (int t = 0; t < hv; ++t) _mm256_storeu_ps(orow + 8 * t, acc[t]);
      }
    } else {
      for (int i = 0; i < n; ++i) {
        const float* srow = scores + static_cast<std::size_t>(i) * n;
        float* orow = out + static_cast<std::size_t>(i) * out_stride + off;
        for (int t = 0; t < hd; ++t) orow[t] = 0.0f;
        for (int j = 0; j < n; ++j) {
          const float sv = srow[j];
          const float* vj = v + static_cast<std::size_t>(j) * qkv_stride + off;
          for (int t = 0; t < hd; ++t) orow[t] += sv * vj[t];
        }
      }
    }
  }
}

constexpr Kernels kAvx2Kernels{gemm_avx2,          gemm_nt_avx2,  softmax_rows_avx2,
                               relu_avx2,          bias_relu_rows_avx2,
                               layernorm_rows_avx2, attention_avx2};

#endif  // GNNMLS_X86

std::atomic<int> g_active{-1};

void record_dispatch(SimdLevel level) {
  obs::FlightRecorder::instance().record(obs::EventKind::kDispatch,
                                         std::string("ml.simd.") + to_string(level),
                                         static_cast<std::uint64_t>(level));
  obs::Metrics::instance()
      .counter(std::string("ml.engine.dispatch.") + to_string(level))
      .add(1);
  util::log_info("ml: inference kernels dispatched to ", to_string(level));
}

}  // namespace

bool cpu_has_avx2() {
#ifdef GNNMLS_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const Kernels& kernels_for(SimdLevel level) {
#ifdef GNNMLS_X86
  if (level == SimdLevel::kAvx2 && cpu_has_avx2()) return kAvx2Kernels;
#else
  (void)level;
#endif
  return kScalarKernels;
}

SimdLevel resolve_simd(const char* override_name) {
  const SimdLevel best = cpu_has_avx2() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
  if (override_name == nullptr || *override_name == '\0') return best;
  if (std::strcmp(override_name, "scalar") == 0) return SimdLevel::kScalar;
  if (std::strcmp(override_name, "avx2") == 0) {
    if (!cpu_has_avx2()) {
      util::log_warn("ml: GNNMLS_SIMD=avx2 requested but unsupported; using scalar kernels");
      return SimdLevel::kScalar;
    }
    return SimdLevel::kAvx2;
  }
  util::log_warn("ml: unknown GNNMLS_SIMD value '", override_name, "'; auto-selecting ",
                 to_string(best));
  return best;
}

SimdLevel active_simd() {
  int v = g_active.load(std::memory_order_acquire);
  if (v < 0) {
    const SimdLevel resolved =
        resolve_simd(std::getenv("GNNMLS_SIMD"));  // NOLINT(concurrency-mt-unsafe)
    int expected = -1;
    if (g_active.compare_exchange_strong(expected, static_cast<int>(resolved),
                                         std::memory_order_acq_rel)) {
      record_dispatch(resolved);
    }
    v = g_active.load(std::memory_order_acquire);
  }
  return static_cast<SimdLevel>(v);
}

const Kernels& kernels() { return kernels_for(active_simd()); }

SimdLevel set_simd_for_test(SimdLevel level) {
  const SimdLevel prev = active_simd();
  SimdLevel next = level;
  if (next == SimdLevel::kAvx2 && !cpu_has_avx2()) next = SimdLevel::kScalar;
  g_active.store(static_cast<int>(next), std::memory_order_release);
  if (next != prev) record_dispatch(next);
  return prev;
}

}  // namespace gnnmls::ml
