// Tests for the matrix kernels the learning stack is built on.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/tensor.hpp"

namespace {

using namespace gnnmls::ml;
using gnnmls::util::Rng;

TEST(Mat, ConstructionAndAccess) {
  Mat m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  m.at(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
}

TEST(Mat, Matmul) {
  Mat a(2, 3), b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  double av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
  a.data().assign(av, av + 6);
  b.data().assign(bv, bv + 6);
  Mat c;
  matmul(a, b, c);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Mat, MatmulShapeChecked) {
  Mat c;
  EXPECT_THROW(matmul(Mat(2, 3), Mat(2, 3), c), std::invalid_argument);
}

TEST(Mat, TransposedVariantsAgree) {
  Rng rng(3);
  const Mat a = Mat::xavier(4, 5, rng);
  const Mat b = Mat::xavier(4, 6, rng);
  // A^T B via matmul_tn == transpose(A) * B.
  Mat tn, ref;
  matmul_tn(a, b, tn);
  matmul(transpose(a), b, ref);
  for (int i = 0; i < tn.rows(); ++i)
    for (int j = 0; j < tn.cols(); ++j) EXPECT_NEAR(tn.at(i, j), ref.at(i, j), 1e-12);
  // A B^T via matmul_nt.
  const Mat c = Mat::xavier(7, 5, rng);
  Mat nt, ref2;
  matmul_nt(a, c, nt);
  matmul(a, transpose(c), ref2);
  for (int i = 0; i < nt.rows(); ++i)
    for (int j = 0; j < nt.cols(); ++j) EXPECT_NEAR(nt.at(i, j), ref2.at(i, j), 1e-12);
}

TEST(Mat, ElementwiseOps) {
  Mat a(1, 3), b(1, 3);
  double av[] = {1, 2, 3}, bv[] = {4, 5, 6};
  a.data().assign(av, av + 3);
  b.data().assign(bv, bv + 3);
  EXPECT_DOUBLE_EQ(sub(b, a).at(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(hadamard(a, b).at(0, 0), 4.0);
  a.axpy(1.0, b);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 7.0);
}

TEST(Mat, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Mat s = Mat::xavier(6, 9, rng);
  softmax_rows_inplace(s);
  for (int i = 0; i < s.rows(); ++i) {
    double sum = 0.0;
    for (int j = 0; j < s.cols(); ++j) {
      EXPECT_GT(s.at(i, j), 0.0);
      sum += s.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Mat, SoftmaxStableForLargeLogits) {
  Mat s(1, 3);
  s.at(0, 0) = 1000.0;
  s.at(0, 1) = 999.0;
  s.at(0, 2) = -1000.0;
  softmax_rows_inplace(s);
  EXPECT_TRUE(std::isfinite(s.at(0, 0)));
  EXPECT_GT(s.at(0, 0), s.at(0, 1));
  EXPECT_NEAR(s.at(0, 2), 0.0, 1e-12);
}

// Finite-difference check of the softmax backward pass.
TEST(Mat, SoftmaxBackwardMatchesFiniteDifference) {
  Rng rng(7);
  const Mat z = Mat::xavier(2, 5, rng);
  const Mat ds = Mat::xavier(2, 5, rng);
  Mat s = z;
  softmax_rows_inplace(s);
  Mat dz;
  softmax_rows_backward(s, ds, dz);
  const double eps = 1e-6;
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 5; ++j) {
      Mat sp = z;
      sp.at(i, j) += eps;
      softmax_rows_inplace(sp);
      double fd = 0.0;
      for (int k = 0; k < 5; ++k) fd += (sp.at(i, k) - s.at(i, k)) / eps * ds.at(i, k);
      EXPECT_NEAR(dz.at(i, j), fd, 1e-5);
    }
  }
}

TEST(Mat, XavierBoundsAndDeterminism) {
  Rng a(11), b(11);
  const Mat ma = Mat::xavier(10, 10, a);
  const Mat mb = Mat::xavier(10, 10, b);
  const double bound = std::sqrt(6.0 / 20.0);
  for (std::size_t i = 0; i < ma.data().size(); ++i) {
    EXPECT_LE(std::abs(ma.data()[i]), bound);
    EXPECT_DOUBLE_EQ(ma.data()[i], mb.data()[i]);
  }
}

TEST(Mat, AxpyAndNorm) {
  Mat a(1, 2), b(1, 2);
  a.at(0, 0) = 3.0;
  a.at(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
  b.at(0, 0) = 1.0;
  a.axpy(2.0, b);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 5.0);
}

TEST(Sigmoid, RangeAndSymmetry) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
  EXPECT_NEAR(sigmoid(2.0) + sigmoid(-2.0), 1.0, 1e-12);
}

}  // namespace
