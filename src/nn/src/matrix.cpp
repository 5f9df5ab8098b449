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

// Rows per parallel chunk (multiple of the 6-row register tile of the
// kernel backends, so tile boundaries are thread-count independent).
constexpr std::size_t kRowGrain = 48;
// Chunk grain for the (small) k-dimension of gemm_tn outputs; also a
// multiple of every register-tile height, so bands hold whole tiles.
constexpr std::size_t kTnGrain = 24;

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
  const float* A = a.flat().data();
  const float* B = b.flat().data();
  float* C = c.flat().data();

  // Each chunk owns a band of C rows (= A columns); the kernel runs them
  // through the same register tile as gemm, reading A transposed, so
  // every C element is one p-ascending chain whatever the band.
  const kernels::KernelTable& kt = kernels::active();
  parallel_for(0, k, kTnGrain, [&](std::size_t lo, std::size_t hi) {
    kt.gemm_tn_band(A, B, C, n, k, m, lo, hi);
  });
  GPUFREQ_DCHECK_FINITE(c);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c) {
  GPUFREQ_REQUIRE(a.cols() == b.cols(), "gemm_nt: inner dimensions mismatch");
  c.resize_uninit(a.rows(), b.rows());
  const std::size_t n = a.rows(), k = a.cols(), m = b.rows();
  if (n == 0 || m == 0) return;
  if (k == 0) {
    c.fill(0.0f);
    return;
  }
  // The natural dot-product form (C(i,j) = a_i . b_j) is a float reduction
  // the compiler cannot reorder, which leaves it scalar and ~8x slower than
  // the tiled kernel. Transposing B once costs O(k*m) against the O(n*k*m)
  // multiply and lets both products share the same code (and the same
  // p-ascending accumulation order, so results stay thread-count
  // independent). The scratch is reused across calls.
  static thread_local std::vector<float> bt;
  bt.resize(k * m);
  const float* B = b.flat().data();
  for (std::size_t j = 0; j < m; ++j) {
    const float* bj = B + j * k;
    for (std::size_t p = 0; p < k; ++p) bt[p * m + j] = bj[p];
  }
  const float* A = a.flat().data();
  const float* Bt = bt.data();
  float* C = c.flat().data();

  const kernels::KernelTable& kt = kernels::active();
  parallel_for(0, n, kRowGrain,
               [&](std::size_t lo, std::size_t hi) { kt.gemm_row_band(A, Bt, C, k, m, lo, hi); });
  GPUFREQ_DCHECK_FINITE(c);
}

void add_row_vector(Matrix& m, std::span<const float> v) {
  GPUFREQ_REQUIRE(v.size() == m.cols(), "add_row_vector: width mismatch");
  if (m.rows() == 0 || m.cols() == 0) return;
  kernels::active().add_row_vector(m.flat().data(), v.data(), m.rows(), m.cols());
}

void column_sums(const Matrix& m, std::span<float> out) {
  GPUFREQ_REQUIRE(out.size() == m.cols(), "column_sums: width mismatch");
  if (m.cols() == 0) return;
  kernels::active().column_sums(m.flat().data(), out.data(), m.rows(), m.cols());
}

}  // namespace gpufreq::nn
