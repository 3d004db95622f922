// Double-precision training kernels behind the ml/kernels.hpp dispatch
// table (internal: include ml/kernels.hpp and call through the table).
//
// kernels_f64.cpp builds with -ffp-contract=off, so no multiply-add is
// fused (its AVX2 variants also target avx2 without fma; avx512f has FMA
// instructions, so for the AVX-512 variants the flag alone prevents it).
// Every output element is the same IEEE mul-then-add sequence at every SIMD
// level: the variants are bit-equal.
#pragma once

#include <cstddef>

#include "ml/kernels.hpp"

namespace gnnmls::ml::detail {

void dgemm_scalar(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                  double* c, int ldc);
void dgemm_tn_scalar(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                     double* c, int ldc);
void dgemm_nt_scalar(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                     double* c, int ldc);
void dgemm_dense_scalar(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                        double* c, int ldc);
void dtranspose_scalar(int n, int k, const double* b, int ldb, double* bt);
void adam_scalar(std::size_t count, const AdamStep& s, const double* g, double* m, double* v,
                 double* w);

#if defined(__x86_64__) || defined(__i386__)
void dgemm_avx2(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                double* c, int ldc);
void dgemm_tn_avx2(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                   double* c, int ldc);
void dgemm_nt_avx2(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                   double* c, int ldc);
void dgemm_dense_avx2(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                      double* c, int ldc);
void dtranspose_avx2(int n, int k, const double* b, int ldb, double* bt);
void adam_avx2(std::size_t count, const AdamStep& s, const double* g, double* m, double* v,
               double* w);

// The AVX-512 level has its own products only; it reuses dtranspose_avx2
// and adam_avx2.
void dgemm_avx512(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                  double* c, int ldc);
void dgemm_tn_avx512(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                     double* c, int ldc);
void dgemm_nt_avx512(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                     double* c, int ldc);
void dgemm_dense_avx512(int m, int k, int n, const double* a, int lda, const double* b, int ldb,
                        double* c, int ldc);
#endif

}  // namespace gnnmls::ml::detail
