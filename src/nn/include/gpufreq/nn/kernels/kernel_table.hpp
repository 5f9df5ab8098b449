#pragma once

#include <cstddef>

#include "gpufreq/nn/activations.hpp"

namespace gpufreq::nn::kernels {

/// The vectorizable primitives of the nn stack, as raw-pointer kernels so
/// one table can be swapped at runtime (see dispatch.hpp). All pointers
/// are row-major with the natural leading dimension; bands ([lo, hi) row
/// ranges) are the unit the thread pool parallelizes over, and every
/// kernel keeps a fixed ascending accumulation order over the inner
/// dimension so band partitioning never changes results. Each backend
/// runs both GEMM bands through one register tile that reads A through a
/// (row stride, inner stride) pair: (k, 1) for A * B and (1, k) for
/// A^T * B (the SIMD backends give a one-column product one C row per
/// lane instead). Every C element is one chain over the inner dimension
/// that starts from zero and ascends, so a row's bits do not depend on
/// the band it falls in or its position in a tile.
struct KernelTable {
  const char* name;

  /// C rows [lo, hi) of C = A * B, A: n x k, B: k x m, C overwritten.
  void (*gemm_row_band)(const float* a, const float* b, float* c, std::size_t k,
                        std::size_t m, std::size_t lo, std::size_t hi);

  /// C rows [lo, hi) (= A columns) of C = A^T * B, A: n x k, B: n x m.
  void (*gemm_tn_band)(const float* a, const float* b, float* c, std::size_t n,
                       std::size_t k, std::size_t m, std::size_t lo, std::size_t hi);

  /// dst = src^T: src is rows x cols, dst cols x rows. Pure data
  /// movement, so every backend gives the same bits.
  void (*transpose)(const float* src, float* dst, std::size_t rows, std::size_t cols);

  /// out[j] = sum_i m[i][j] (out overwritten).
  void (*column_sums)(const float* m, float* out, std::size_t rows, std::size_t cols);

  /// y[i] = act(z[i]) and, when d is non-null, d[i] = act'(z[i]) rounded
  /// to float, both from one evaluation of the activation (SELU, ELU and
  /// sigmoid share one exp). In place (y == z) is allowed; d must not
  /// alias z. The scalar fused forward asks for d for every activation,
  /// the SIMD ones only for the tanh/softplus fallback (their epilogues
  /// compute d for the rest). The SIMD backends still honour d for every
  /// activation, so the entry has one contract on every table and the
  /// tests can check the fused epilogues' d against it.
  void (*activate)(Activation act, const float* z, float* y, float* d, std::size_t n);

  /// Fused dense layer, rows [lo, hi), over the weights W (k x m,
  /// row-major) as the layer stores them; training, evaluation and serving
  /// all run through it (inference passes d = nullptr):
  ///   z = X[i] * W + bias,  y = act(z),  d = act'(z) (when d != nullptr)
  /// Each z element is gemm_row_band's p-ascending chain from zero with
  /// the bias added after it, and y/d are computed per element exactly as
  /// activate computes them, so the result is bitwise the composition
  /// gemm_row_band -> bias add -> activate, with no Z matrix written.
  /// The backward pass keeps d rather than z: dL/dz = d * dL/dy.
  /// X: rows x k, y and d: rows x m.
  void (*dense_forward_band)(const float* x, const float* w, const float* bias,
                             Activation act, float* y, float* d, std::size_t k,
                             std::size_t m, std::size_t lo, std::size_t hi);
};

/// Table of the active backend; first use runs dispatch selection.
const KernelTable& active();

namespace detail {
/// The portable reference table (always present).
const KernelTable& scalar_table();
/// The AVX2+FMA table, or nullptr when not compiled into this binary.
const KernelTable* avx2_table();
/// The AVX-512F+BW table, or nullptr when not compiled into this binary.
const KernelTable* avx512_table();
}  // namespace detail

}  // namespace gpufreq::nn::kernels
