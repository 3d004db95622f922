// Compute kernels for the ML stack: float32 for the batched inference
// engine, double precision for training.
//
// Inference runs on contiguous float32 buffers through this kernel table;
// training runs the double-precision Mat stack (ml/tensor.hpp), whose
// products and optimizer step call the table's double entries. The table is
// resolved once per process to the best level the CPU supports: AVX-512 when
// it has avx512f (plus AVX2 and FMA), AVX2 when it has AVX2 and FMA,
// portable scalar fallbacks otherwise, with a GNNMLS_SIMD=scalar|avx2|avx512
// environment override for A/B runs. The selection is recorded in the flight
// recorder (EventKind::kDispatch) and the ml.engine.dispatch.* counters so a
// perf-ledger row always says which code path produced it.
//
// Contract notes:
//   * gemm / gemm_nt take an `accumulate` flag: true is C += A·B (callers
//     pre-fill C with the bias row for a fused bias add), false is C = A·B
//     (overwrite — saves the zero-fill pass and the C read).
//   * The float matrices are dense row-major with no padding between rows;
//     the double products take a leading dimension (row stride) per matrix.
//   * Float variants may differ in the last ulps (different summation order,
//     FMA contraction, polynomial exp in softmax); the engine's parity tests
//     pin the tolerance. The AVX-512 level's float entries are the AVX2
//     ones, so inference gives the same bits at both levels.
//   * Double variants are bit-equal across SIMD levels: each output element
//     is the same IEEE mul-then-add sequence in ascending k, starting from
//     +0.0, at every level (no FMA: kernels_f64.cpp builds with
//     -ffp-contract=off), and Adam keeps its expression order lane by lane.
//     The AVX-512 level has its own four products (4-row register blocks)
//     and reuses the AVX2 transpose and Adam. Training results therefore
//     never depend on GNNMLS_SIMD.
#pragma once

#include <cstddef>

namespace gnnmls::ml {

// Ordered: a level can run on any CPU that runs a higher one.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
const char* to_string(SimdLevel level);

// One Adam step's coefficients; bc1 and bc2 are the bias corrections
// 1 - beta1^t and 1 - beta2^t.
struct AdamStep {
  double lr, beta1, beta2, eps, bc1, bc2;
};

struct Kernels {
  // C(m x n) (+)= A(m x k) · B(k x n); accumulate selects += vs overwrite.
  void (*gemm)(int m, int k, int n, const float* a, const float* b, float* c, bool accumulate);
  // C(m x n) (+)= A(m x k) · B(n x k)^T  (B stored row-major as n x k)
  void (*gemm_nt)(int m, int k, int n, const float* a, const float* b, float* c,
                  bool accumulate);
  // In-place row-wise softmax over an m x n matrix.
  void (*softmax_rows)(int m, int n, float* x);
  // In-place elementwise max(0, x).
  void (*relu)(std::size_t count, float* x);
  // Fused x = max(0, x + bias) per row (bias is n wide): the FFN/head
  // activation without a separate bias-fill pass over the buffer.
  void (*bias_relu_rows)(int m, int n, const float* bias, float* x);
  // Row-wise layer norm: y = (x - mean) / sqrt(var + eps) * gamma + beta.
  // In-place safe (y may alias x).
  void (*layernorm_rows)(int m, int n, const float* x, const float* gamma, const float* beta,
                         float eps, float* y);
  // Fused single-graph multi-head attention over strided head slices. For
  // each head h with slice offset h*(d/heads) into the n-row matrices
  // q/k/v (row stride qkv_stride — d columns of a packed q|k|v buffer) and
  // out (row stride out_stride):
  //   S = softmax(scale * Qh·Khᵀ + edge_bias[h] · adj);  Out_h = S · Vh
  // adj is n rows of `adj_stride` floats; scores_ws is a caller-provided
  // n x n workspace. Only the head slices of out's first n rows are written.
  void (*attention)(int n, int d, int heads, const float* q, const float* kmat, const float* v,
                    int qkv_stride, const float* adj, int adj_stride, const float* edge_bias,
                    float scale, float* scores_ws, float* out, int out_stride);

  // ---- double precision (training) ----
  // C(m x n) = A(m x k) · B(k x n); lda/ldb/ldc are row strides. Terms whose
  // A entry is zero are left out (ReLU outputs, adjacency and attention
  // rows are sparse).
  void (*dgemm)(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                double* c, int ldc);
  // C(m x n) = A(k x m)ᵀ · B(k x n); zero A entries are left out.
  void (*dgemm_tn)(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                   double* c, int ldc);
  // C(m x n) = A(m x k) · B(n x k)ᵀ; every term is summed.
  void (*dgemm_nt)(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                   double* c, int ldc);
  // C(m x n) = A(m x k) · B(k x n) with every term summed: dgemm_nt's sums
  // for a B that is already transposed, so both give the same bits.
  void (*dgemm_dense)(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                      double* c, int ldc);
  // Bt (k x n, dense) = B(n x k)ᵀ, B with row stride ldb.
  void (*dtranspose)(int n, int k, const double* b, int ldb, double* bt);
  // Adam over `count` parameters: m and v are the moment estimates, w the
  // weights, g the gradient.
  void (*adam)(std::size_t count, const AdamStep& step, const double* g, double* m, double* v,
               double* w);
};

// The process-wide kernel table / active level (resolved on first use).
const Kernels& kernels();
SimdLevel active_simd();

// Kernel tables for a specific level (clamped to what the CPU supports),
// independent of dispatch — the parity tests compare these directly.
const Kernels& kernels_for(SimdLevel level);

// True when this CPU can run the AVX2 variants.
bool cpu_has_avx2();
// True when this CPU can run the AVX-512 variants (avx512f, avx2 and fma).
bool cpu_has_avx512();
// The highest level this CPU can run.
SimdLevel best_simd();

// Parses a GNNMLS_SIMD-style override ("scalar"/"avx2"/"avx512") and
// returns the level actually used: a request above `supported` degrades to
// `supported` with a warning; nullptr/empty/unknown -> `supported`.
SimdLevel resolve_simd(const char* override_name, SimdLevel supported = best_simd());

// Test/bench hook: force the active level in-process (clamped to what the
// CPU supports) and re-record the dispatch event. Returns the previous
// level. Not safe concurrently with running forwards.
SimdLevel set_simd_for_test(SimdLevel level);

}  // namespace gnnmls::ml
