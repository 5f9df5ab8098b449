#include "gpufreq/nn/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/thread_pool.hpp"

namespace gpufreq::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

void Matrix::resize_uninit(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::reserve(std::size_t rows, std::size_t cols) { data_.reserve(rows * cols); }

float Matrix::frobenius_norm() const {
  double s = 0.0;
  for (const double v : data_) s += v * v;
  return static_cast<float>(std::sqrt(s));
}

namespace {

// Rows per parallel chunk (multiple of the 6- and 8-row register tiles of
// the kernel backends, so tile boundaries are thread-count independent).
constexpr std::size_t kRowGrain = 48;

}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  GPUFREQ_REQUIRE(a.cols() == b.rows(), "gemm: inner dimensions mismatch");
  c.resize_uninit(a.rows(), b.cols());
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  if (n == 0 || m == 0) return;
  if (k == 0) {
    c.fill(0.0f);
    return;
  }
  const float* A = a.flat().data();
  const float* B = b.flat().data();
  float* C = c.flat().data();

  const kernels::KernelTable& kt = kernels::active();
  parallel_for(0, n, kRowGrain,
               [&](std::size_t lo, std::size_t hi) { kt.gemm_row_band(A, B, C, k, m, lo, hi); });
  GPUFREQ_DCHECK_FINITE(c);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c) {
  GPUFREQ_REQUIRE(a.rows() == b.rows(), "gemm_tn: inner dimensions mismatch");
  c.resize_uninit(a.cols(), b.cols());
  const std::size_t n = a.rows(), k = a.cols(), m = b.cols();
  if (k == 0 || m == 0) return;
  // The kernel runs C's rows (= A's columns) through the same register
  // tile as gemm, reading A transposed, so every C element is one
  // p-ascending chain whatever the band.
  kernels::active().gemm_tn_band(a.flat().data(), b.flat().data(), c.flat().data(), n, k, m, 0,
                                 k);
  GPUFREQ_DCHECK_FINITE(c);
}

void column_sums(const Matrix& m, std::span<float> out) {
  GPUFREQ_REQUIRE(out.size() == m.cols(), "column_sums: width mismatch");
  if (m.cols() == 0) return;
  kernels::active().column_sums(m.flat().data(), out.data(), m.rows(), m.cols());
}

}  // namespace gpufreq::nn
