#pragma once

// Test-only reference for the training step as separate passes, before
// the forward pass emitted act'(z): z = gemm_row_band(x, W) + bias, y =
// activate(z), and dL/dz = act'(z) * dL/dy recomputed from the stored z
// by the activate_backward kernel entry that the fused forward replaced.
//
// The SIMD backends' activation lanes are written out one lane at a time
// with std::fma wherever the vector code fused a multiply-add, so every
// value is the correctly rounded result of the same IEEE operation
// sequence the avx2 exp256 and the avx512 exp512 (2^fx applied by an
// exponent-bits multiply) ran. The scalar backend's reference is the
// library's scalar activate()/activate_derivative(), which the scalar
// kernels share. TUs that include this header build with
// -ffp-contract=off (tests/CMakeLists.txt) so the compiler adds no fused
// multiply-add of its own.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gpufreq/nn/activations.hpp"
#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/nn/matrix.hpp"

namespace gpufreq::nn::unfused_reference {

inline constexpr float kLeakySlope = 0.2f;

// One lane of the vector exp: clamps written constant-first (a NaN lane
// stays NaN), floor(fma(x, log2e, 0.5)), two fnmadd range reductions, the
// fmadd polynomial, then y * 2^fx through the exponent bits with fx
// zeroed on NaN lanes.
inline float simd_exp(float x) {
  x = 88.0f < x ? 88.0f : x;
  x = -87.0f > x ? -87.0f : x;
  const float fx = std::floor(std::fma(x, 1.44269504088896341f, 0.5f));
  x = std::fma(-fx, 0.693359375f, x);
  x = std::fma(-fx, -2.12194440e-4f, x);
  float y = 1.9875691500e-4f;
  y = std::fma(y, x, 1.3981999507e-3f);
  y = std::fma(y, x, 8.3334519073e-3f);
  y = std::fma(y, x, 4.1665795894e-2f);
  y = std::fma(y, x, 1.6666665459e-1f);
  y = std::fma(y, x, 5.0000001201e-1f);
  const float yx = y * x;
  y = std::fma(yx, x, x) + 1.0f;
  const float fx_int = fx == fx ? fx : 0.0f;
  const std::uint32_t bits =
      static_cast<std::uint32_t>(static_cast<std::int32_t>(fx_int) + 127) << 23;
  float pow2;
  std::memcpy(&pow2, &bits, sizeof(pow2));
  return y * pow2;
}

// One lane of the vector activation (act8 / act16). tanh and softplus were
// never vectorized: they use the scalar reference.
inline float simd_act(Activation act, float z) {
  const bool gt = z > 0.0f;  // _CMP_GT_OQ: false on NaN
  switch (act) {
    case Activation::kLinear: return z;
    case Activation::kRelu: return gt ? z : 0.0f;
    case Activation::kElu: return gt ? z : simd_exp(z) - 1.0f;
    case Activation::kLeakyRelu: return gt ? z : kLeakySlope * z;
    case Activation::kSelu:
      return gt ? kSeluScale * z : (kSeluScale * kSeluAlpha) * (simd_exp(z) - 1.0f);
    case Activation::kSigmoid: return 1.0f / (1.0f + simd_exp(0.0f - z));
    case Activation::kSoftsign: return z / (1.0f + std::fabs(z));
    case Activation::kTanh:
    case Activation::kSoftplus: return activate(act, z);
  }
  return z;
}

// One lane of the vector derivative (dact8 / dact16); tanh used the
// scalar reference, softplus the vector sigmoid.
inline float simd_derivative(Activation act, float z) {
  const bool gt = z > 0.0f;
  switch (act) {
    case Activation::kLinear: return 1.0f;
    case Activation::kRelu: return gt ? 1.0f : 0.0f;
    case Activation::kElu: return gt ? 1.0f : simd_exp(z);
    case Activation::kLeakyRelu: return gt ? 1.0f : kLeakySlope;
    case Activation::kSelu: return gt ? kSeluScale : (kSeluScale * kSeluAlpha) * simd_exp(z);
    case Activation::kSigmoid: {
      const float s = simd_act(Activation::kSigmoid, z);
      return s * (1.0f - s);
    }
    case Activation::kSoftplus: return simd_act(Activation::kSigmoid, z);
    case Activation::kSoftsign: {
      const float d = 1.0f + std::fabs(z);
      return 1.0f / (d * d);
    }
    case Activation::kTanh: return activate_derivative(act, z);
  }
  return 1.0f;
}

inline bool is_scalar(const kernels::KernelTable& kt) {
  return &kt == &kernels::detail::scalar_table();
}

// The unfused activate entry of `kt`, one element.
inline float act(const kernels::KernelTable& kt, Activation a, float z) {
  return is_scalar(kt) ? activate(a, z) : simd_act(a, z);
}

// The activate_backward entry of `kt` with dy = 1, one element.
inline float derivative(const kernels::KernelTable& kt, Activation a, float z) {
  return is_scalar(kt) ? activate_derivative(a, z) : simd_derivative(a, z);
}

// z = x * W + bias through kt's gemm_row_band, then the bias add as its
// own pass. x: rows x k, w: k x m.
inline std::vector<float> pre_activation(const kernels::KernelTable& kt, const float* x,
                                         const float* w, const float* bias, std::size_t rows,
                                         std::size_t k, std::size_t m) {
  std::vector<float> z(rows * m);
  kt.gemm_row_band(x, w, z.data(), k, m, 0, rows);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < m; ++j) z[i * m + j] += bias[j];
  }
  return z;
}

// dst = src^T by plain loops: what gemm_nt did before its row-band GEMM.
// src: rows x cols.
inline Matrix transposed(const Matrix& src) {
  Matrix t(src.cols(), src.rows());
  for (std::size_t i = 0; i < src.rows(); ++i) {
    for (std::size_t j = 0; j < src.cols(); ++j) t(j, i) = src(i, j);
  }
  return t;
}

}  // namespace gpufreq::nn::unfused_reference
