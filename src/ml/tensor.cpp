#include "ml/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ml/kernels.hpp"

namespace gnnmls::ml {

void Mat::zero() { std::fill(d_.begin(), d_.end(), 0.0); }
void Mat::fill(double v) { std::fill(d_.begin(), d_.end(), v); }

void Mat::resize(int rows, int cols) {
  rows_ = rows;
  cols_ = cols;
  d_.reserve(static_cast<std::size_t>(rows) * cols);
  d_.resize(static_cast<std::size_t>(rows) * cols);
}

Mat Mat::xavier(int rows, int cols, util::Rng& rng) {
  Mat m(rows, cols);
  const double bound = std::sqrt(6.0 / (rows + cols));
  for (double& v : m.d_) v = rng.uniform(-bound, bound);
  return m;
}

void Mat::axpy(double a, const Mat& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("axpy shape mismatch");
  for (std::size_t i = 0; i < d_.size(); ++i) d_[i] += a * other.d_[i];
}

double Mat::frobenius_norm() const {
  double s = 0.0;
  for (double v : d_) s += v * v;
  return std::sqrt(s);
}

void matmul(const Mat& a, const Mat& b, Mat& c) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul shape mismatch");
  c.resize(a.rows(), b.cols());
  kernels().dgemm(a.rows(), a.cols(), b.cols(), a.data().data(), a.cols(), b.data().data(),
                  b.cols(), c.data().data(), c.cols());
}

void matmul_tn(const Mat& a, const Mat& b, Mat& c) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_tn shape mismatch");
  c.resize(a.cols(), b.cols());
  kernels().dgemm_tn(a.cols(), a.rows(), b.cols(), a.data().data(), a.cols(), b.data().data(),
                     b.cols(), c.data().data(), c.cols());
}

void matmul_nt(const Mat& a, const Mat& b, Mat& c) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_nt shape mismatch");
  c.resize(a.rows(), b.rows());
  kernels().dgemm_nt(a.rows(), a.cols(), b.rows(), a.data().data(), a.cols(), b.data().data(),
                     b.cols(), c.data().data(), c.cols());
}

void matmul_dense(const Mat& a, const Mat& b, Mat& c) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul_dense shape mismatch");
  c.resize(a.rows(), b.cols());
  kernels().dgemm_dense(a.rows(), a.cols(), b.cols(), a.data().data(), a.cols(),
                        b.data().data(), b.cols(), c.data().data(), c.cols());
}

namespace {
void check_same(const Mat& a, const Mat& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("elementwise shape mismatch");
}
}  // namespace

Mat sub(const Mat& a, const Mat& b) {
  check_same(a, b);
  Mat c = a;
  c.axpy(-1.0, b);
  return c;
}

Mat hadamard(const Mat& a, const Mat& b) {
  check_same(a, b);
  Mat c(a.rows(), a.cols());
  for (std::size_t i = 0; i < c.data().size(); ++i) c.data()[i] = a.data()[i] * b.data()[i];
  return c;
}

Mat transpose(const Mat& a) {
  Mat t;
  transpose_into(a, t);
  return t;
}

void transpose_into(const Mat& a, Mat& t) {
  t.resize(a.cols(), a.rows());
  kernels().dtranspose(a.rows(), a.cols(), a.data().data(), a.cols(), t.data().data());
}

void softmax_rows_inplace(int m, int n, double* a) {
  for (int i = 0; i < m; ++i) {
    double* row = a + static_cast<std::ptrdiff_t>(i) * n;
    double mx = row[0];
    for (int j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int j = 0; j < n; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    for (int j = 0; j < n; ++j) row[j] /= sum;
  }
}

void softmax_rows_inplace(Mat& a) { softmax_rows_inplace(a.rows(), a.cols(), a.data().data()); }

void softmax_rows_backward(int m, int n, const double* s, const double* ds, double* dz) {
  for (int i = 0; i < m; ++i) {
    const std::ptrdiff_t r = static_cast<std::ptrdiff_t>(i) * n;
    const double* srow = s + r;
    const double* dsrow = ds + r;
    double dot = 0.0;
    for (int j = 0; j < n; ++j) dot += srow[j] * dsrow[j];
    double* dzrow = dz + r;
    for (int j = 0; j < n; ++j) dzrow[j] = srow[j] * (dsrow[j] - dot);
  }
}

void softmax_rows_backward(const Mat& s, const Mat& ds, Mat& dz) {
  check_same(s, ds);
  dz.resize(s.rows(), s.cols());
  softmax_rows_backward(s.rows(), s.cols(), s.data().data(), ds.data().data(), dz.data().data());
}

void add_row_bias(Mat& a, const Mat& bias) {
  if (bias.rows() != 1 || bias.cols() != a.cols())
    throw std::invalid_argument("bias shape mismatch");
  for (int i = 0; i < a.rows(); ++i) {
    double* row = a.row(i);
    for (int j = 0; j < a.cols(); ++j) row[j] += bias.at(0, j);
  }
}

double sigmoid(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace gnnmls::ml
