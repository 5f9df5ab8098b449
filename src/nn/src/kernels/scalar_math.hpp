#pragma once

// Internal shared elementwise math for the nn kernels. The scalar
// activate()/activate_derivative() overloads (src/nn/src/activations.cpp)
// and the scalar kernel backend (scalar.cpp) must call the *same* inlined
// code so both produce bit-identical results; this header is that single
// definition. Both TUs are compiled with -ffp-contract=off, so these
// expressions round exactly as written whether a loop runs them in its
// vector body, its scalar tail, or a single call. Not a public header —
// lives under src/nn/src/kernels/ on purpose.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "gpufreq/nn/activations.hpp"

namespace gpufreq::nn::kernels::scalar_math {

inline constexpr float kLeakySlope = 0.2f;

// Branch-free single-precision exp (Cephes-style range reduction + degree-5
// polynomial, |relative error| < 2e-7 over the clamped domain). Unlike
// libm's expf this is straight-line code, so the per-activation loops
// auto-vectorize — SELU forward/backward over a training run evaluates exp
// hundreds of millions of times and dominates the epoch wall time.
// exp(0) returns exactly 1, which several call sites rely on. NaN inputs
// propagate to NaN (std::min/max keep a NaN first argument, and the
// exponent is derived from a NaN-squashed copy so the int cast stays
// defined).
inline float fast_expf(float x) {
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  x = std::min(x, 88.0f);   // below float overflow
  x = std::max(x, -87.0f);  // above float denormals
  const float fx = std::floor(x * kLog2e + 0.5f);
  x -= fx * kLn2Hi;
  x -= fx * kLn2Lo;
  float y = 1.9875691500e-4f;
  y = y * x + 1.3981999507e-3f;
  y = y * x + 8.3334519073e-3f;
  y = y * x + 4.1665795894e-2f;
  y = y * x + 1.6666665459e-1f;
  y = y * x + 5.0000001201e-1f;
  y = y * x * x + x + 1.0f;
  // Scale by 2^fx through the exponent bits; fx is in [-125, 127] after
  // the clamp (0 for NaN, where y is already NaN and y * p stays NaN), so
  // the biased exponent never leaves (0, 255).
  const float fx_int = fx == fx ? fx : 0.0f;
  const std::uint32_t bits =
      static_cast<std::uint32_t>(static_cast<std::int32_t>(fx_int) + 127) << 23;
  float p;
  std::memcpy(&p, &bits, sizeof(p));
  return y * p;
}

inline float elu_f(float x) { return x > 0.0f ? x : fast_expf(x) - 1.0f; }
inline float selu_f(float x) {
  return x > 0.0f ? kSeluScale * x : kSeluScale * kSeluAlpha * (fast_expf(x) - 1.0f);
}
inline float sigmoid_f(float x) { return 1.0f / (1.0f + fast_expf(-x)); }
inline float softplus_f(float x) {
  const float e = fast_expf(-std::abs(x));
  return std::log1p(e) + std::max(x, 0.0f);
}
inline float softsign_f(float x) { return x / (1.0f + std::abs(x)); }

// act(x).
inline float value_f(Activation act, float x) {
  switch (act) {
    case Activation::kLinear: return x;
    case Activation::kRelu: return x > 0.0f ? x : 0.0f;
    case Activation::kElu: return elu_f(x);
    case Activation::kLeakyRelu: return x > 0.0f ? x : kLeakySlope * x;
    case Activation::kSelu: return selu_f(x);
    case Activation::kSigmoid: return sigmoid_f(x);
    case Activation::kTanh: return std::tanh(x);
    case Activation::kSoftplus: return softplus_f(x);
    case Activation::kSoftsign: return softsign_f(x);
  }
  return x;
}

// d act(x) / dx given the pre-activation x.
inline float derivative_f(Activation act, float x) {
  switch (act) {
    case Activation::kLinear: return 1.0f;
    case Activation::kRelu: return x > 0.0f ? 1.0f : 0.0f;
    case Activation::kElu: return x > 0.0f ? 1.0f : fast_expf(x);
    case Activation::kLeakyRelu: return x > 0.0f ? 1.0f : kLeakySlope;
    case Activation::kSelu:
      return x > 0.0f ? kSeluScale : kSeluScale * kSeluAlpha * fast_expf(x);
    case Activation::kSigmoid: {
      const float s = sigmoid_f(x);
      return s * (1.0f - s);
    }
    case Activation::kTanh: {
      const float t = std::tanh(x);
      return 1.0f - t * t;
    }
    case Activation::kSoftplus: return sigmoid_f(x);
    case Activation::kSoftsign: {
      const float d = 1.0f + std::abs(x);
      return 1.0f / (d * d);
    }
  }
  return 1.0f;
}

// y = act(x) and d = act'(x) with the shared exp, sigmoid or tanh
// evaluated once. Every expression is the one value_f and derivative_f
// round, so both results are bitwise theirs.
inline void value_and_derivative_f(Activation act, float x, float& y, float& d) {
  switch (act) {
    case Activation::kElu: {
      const float e = fast_expf(x);
      y = x > 0.0f ? x : e - 1.0f;
      d = x > 0.0f ? 1.0f : e;
      return;
    }
    case Activation::kSelu: {
      const float e = fast_expf(x);
      y = x > 0.0f ? kSeluScale * x : kSeluScale * kSeluAlpha * (e - 1.0f);
      d = x > 0.0f ? kSeluScale : kSeluScale * kSeluAlpha * e;
      return;
    }
    case Activation::kSigmoid: {
      const float s = sigmoid_f(x);
      y = s;
      d = s * (1.0f - s);
      return;
    }
    case Activation::kTanh: {
      const float t = std::tanh(x);
      y = t;
      d = 1.0f - t * t;
      return;
    }
    default:
      y = value_f(act, x);
      d = derivative_f(act, x);
      return;
  }
}

}  // namespace gpufreq::nn::kernels::scalar_math
