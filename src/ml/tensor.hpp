// Dense row-major matrix used by the learning stack.
//
// The GNN-MLS model is small (3 transformer layers, 3 heads, model width
// ~48) and runs on timing paths of a few dozen nodes, so a straightforward
// cache-friendly double-precision matrix plus hand-written gradients is both
// simpler and faster here than an autograd graph — and it keeps the library
// dependency-free.
//
// The products run on the double entries of the ml/kernels.hpp
// dispatch table, which are bit-equal across SIMD levels (scalar, AVX2,
// AVX-512): training results do not depend on the CPU or on
// GNNMLS_SIMD=scalar|avx2|avx512. Each product writes a
// caller-owned output, reusing its storage, so a training step that keeps
// its buffers allocates nothing per op.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace gnnmls::ml {

class Mat {
 public:
  Mat() = default;
  Mat(int rows, int cols) : rows_(rows), cols_(cols), d_(static_cast<std::size_t>(rows) * cols, 0.0) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return d_.empty(); }

  double& at(int r, int c) { return d_[static_cast<std::size_t>(r) * cols_ + c]; }
  double at(int r, int c) const { return d_[static_cast<std::size_t>(r) * cols_ + c]; }
  double* row(int r) { return d_.data() + static_cast<std::size_t>(r) * cols_; }
  const double* row(int r) const { return d_.data() + static_cast<std::size_t>(r) * cols_; }
  std::vector<double>& data() { return d_; }
  const std::vector<double>& data() const { return d_; }

  void zero();
  void fill(double v);
  // Reshapes to rows x cols, reusing the storage's capacity; growth
  // allocates exactly rows x cols, so buffers sized by the largest batch
  // carry no geometric slack. Element values are unspecified until written:
  // callers that accumulate zero() first.
  void resize(int rows, int cols);

  // Xavier/Glorot uniform init, deterministic via rng.
  static Mat xavier(int rows, int cols, util::Rng& rng);

  // this += a * other (shape must match).
  void axpy(double a, const Mat& other);

  double frobenius_norm() const;

 private:
  int rows_ = 0, cols_ = 0;
  std::vector<double> d_;
};

// C = A * B. Each product resizes c, which must not alias a or b.
void matmul(const Mat& a, const Mat& b, Mat& c);
// C = A^T * B
void matmul_tn(const Mat& a, const Mat& b, Mat& c);
// C = A * B^T
void matmul_nt(const Mat& a, const Mat& b, Mat& c);
// C = A * B with every term summed: matmul_dense(a, transpose(b), c) gives
// matmul_nt(a, b, c)'s bits without transposing b on the call.
void matmul_dense(const Mat& a, const Mat& b, Mat& c);

Mat sub(const Mat& a, const Mat& b);
Mat hadamard(const Mat& a, const Mat& b);
Mat transpose(const Mat& a);
// t = A^T, reusing t's storage.
void transpose_into(const Mat& a, Mat& t);

// Row-wise softmax, in place.
void softmax_rows_inplace(Mat& a);
// Given S = softmax_rows_inplace(Z) and dL/dS, writes dL/dZ into dz.
void softmax_rows_backward(const Mat& s, const Mat& ds, Mat& dz);
// The same two over a dense row-major m x n block (one graph's attention
// scores inside a packed batch).
void softmax_rows_inplace(int m, int n, double* a);
void softmax_rows_backward(int m, int n, const double* s, const double* ds, double* dz);

// Adds `bias` (1 x cols) to every row.
void add_row_bias(Mat& a, const Mat& bias);

double sigmoid(double x);

}  // namespace gnnmls::ml
