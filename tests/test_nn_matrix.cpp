#include "gpufreq/nn/matrix.hpp"

#include <gtest/gtest.h>

#include "gpufreq/util/error.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/util/thread_pool.hpp"

namespace gpufreq::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (float& v : m.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

Matrix naive_gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float s = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

void expect_matrix_near(const Matrix& a, const Matrix& b, float tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_NEAR(a(i, j), b(i, j), tol) << "(" << i << "," << j << ")";
    }
  }
}

TEST(Matrix, ConstructionAndFill) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m.fill(0.0f);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
}

TEST(Matrix, RowSpanIsView) {
  Matrix m(2, 2);
  m.row(1)[0] = 7.0f;
  EXPECT_FLOAT_EQ(m(1, 0), 7.0f);
}

TEST(Matrix, ResizeZeroes) {
  Matrix m(1, 1, 9.0f);
  m.resize(2, 2);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_FLOAT_EQ(m(1, 1), 0.0f);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(1, 2);
  m(0, 0) = 3.0f;
  m(0, 1) = 4.0f;
  EXPECT_FLOAT_EQ(m.frobenius_norm(), 5.0f);
}

TEST(Gemm, MatchesNaive) {
  Rng rng(1);
  const Matrix a = random_matrix(7, 5, rng);
  const Matrix b = random_matrix(5, 9, rng);
  Matrix c;
  gemm(a, b, c);
  expect_matrix_near(c, naive_gemm(a, b), 1e-5f);
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix a(2, 3), b(4, 2), c;
  EXPECT_THROW(gemm(a, b, c), InvalidArgument);
}

TEST(GemmTn, MatchesNaiveTranspose) {
  Rng rng(2);
  const Matrix a = random_matrix(6, 4, rng);  // a^T is 4x6
  const Matrix b = random_matrix(6, 3, rng);
  Matrix c;
  gemm_tn(a, b, c);
  Matrix at(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) at(j, i) = a(i, j);
  }
  expect_matrix_near(c, naive_gemm(at, b), 1e-5f);
}

TEST(Gemm, IdentityIsNeutral) {
  Rng rng(4);
  const Matrix a = random_matrix(4, 4, rng);
  Matrix eye(4, 4);
  for (std::size_t i = 0; i < 4; ++i) eye(i, i) = 1.0f;
  Matrix c;
  gemm(a, eye, c);
  expect_matrix_near(c, a, 1e-6f);
}

TEST(ColumnSums, SumsColumns) {
  Matrix m(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    m(i, 0) = static_cast<float>(i);
    m(i, 1) = 1.0f;
  }
  std::vector<float> out(2);
  column_sums(m, out);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_FLOAT_EQ(out[1], 3.0f);
}

void expect_matrix_bitwise_equal(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(Matrix, GemmVariantsBitwiseIdenticalAcrossThreadCounts) {
  // The contract documented on gemm/gemm_tn: the accumulation order is
  // fixed by the grain, never by the thread count, so results are bitwise
  // identical (max-abs-diff exactly 0) for any set_num_threads.
  Rng rng(77);
  const Matrix a = random_matrix(131, 67, rng);   // odd sizes exercise tails
  const Matrix b = random_matrix(67, 53, rng);
  const Matrix p = random_matrix(131, 67, rng);
  const Matrix q = random_matrix(131, 53, rng);

  set_num_threads(1);
  Matrix c_serial, tn_serial;
  gemm(a, b, c_serial);
  gemm_tn(p, q, tn_serial);

  set_num_threads(4);
  Matrix c_par, tn_par;
  gemm(a, b, c_par);
  gemm_tn(p, q, tn_par);
  set_num_threads(0);

  expect_matrix_bitwise_equal(c_serial, c_par);
  expect_matrix_bitwise_equal(tn_serial, tn_par);

  // And the tiled kernel still agrees with the reference triple loop.
  expect_matrix_near(c_serial, naive_gemm(a, b), 1e-3f);
}

TEST(Matrix, ResizeUninitKeepsShapeContract) {
  Matrix m(2, 3, 1.0f);
  m.resize_uninit(4, 5);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.size(), 20u);
  // resize() (unlike resize_uninit) must still zero.
  m.resize(2, 2);
  EXPECT_FLOAT_EQ(m(1, 1), 0.0f);
}

}  // namespace
}  // namespace gpufreq::nn
