#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gpufreq::nn {

/// Dense row-major float matrix used by the neural-network stack. Kept
/// dependency-free: the GEMM kernels below are register-tiled and
/// row-panel parallel (see DESIGN.md "Performance"), which is enough for
/// the 3x64x64x64x1 MLPs this library trains and for the bench GEMMs.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::span<float> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const float> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  void fill(float value);
  void resize(std::size_t rows, std::size_t cols);

  /// Pre-grow capacity for a later resize/resize_uninit of up to
  /// rows x cols without changing the current shape. Lets batch servers
  /// warm a workspace to its high-water mark before entering an
  /// allocation-free steady state.
  void reserve(std::size_t rows, std::size_t cols);

  /// Resize without initializing the payload (contents unspecified).
  /// Reuses capacity, so repeated reshaping in a hot loop never allocates
  /// once the high-water mark is reached. Callers must overwrite every
  /// element before reading.
  void resize_uninit(std::size_t rows, std::size_t cols);

  /// Frobenius-norm helpers used by gradient tests.
  float frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B. Dimensions are checked (InvalidArgument). Blocked /
/// register-tiled, with row-panel parallelism across the global thread
/// pool for large row counts. Per-element accumulation order is fixed
/// (ascending inner dimension), so results are bitwise identical for any
/// set_num_threads value.
void gemm(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A^T * B, on the calling thread: its caller is the training step's
/// weight gradient, a product too small to split. Same accumulation order
/// guarantee as gemm.
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c);

/// Column-wise sum of `m` into `out` (size cols).
void column_sums(const Matrix& m, std::span<float> out);

}  // namespace gpufreq::nn
