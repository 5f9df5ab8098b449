#pragma once

#include <span>
#include <string>

namespace gpufreq::nn {

/// Activation functions evaluated in the paper's architecture sweep (§4.3).
/// The paper selects SELU for both the power and time models.
enum class Activation {
  kLinear,
  kRelu,
  kElu,
  kLeakyRelu,
  kSelu,
  kSigmoid,
  kTanh,
  kSoftplus,
  kSoftsign,
};

/// SELU constants as given in the paper's Equation 2.
inline constexpr float kSeluAlpha = 1.67326324f;
inline constexpr float kSeluScale = 1.05070098f;

const char* to_string(Activation act);
Activation activation_from_string(const std::string& name);

/// y = act(x), elementwise.
float activate(Activation act, float x);

/// d act(x) / dx given the pre-activation x. (Training takes the fused
/// vector form: kernels::KernelTable::dense_forward_band writes it during
/// the forward pass.)
float activate_derivative(Activation act, float x);

/// Vectorized in-place application: out[i] = act(z[i]).
void activate(Activation act, std::span<const float> z, std::span<float> out);

/// LeCun-normal initialization stddev for a layer with `fan_in` inputs —
/// the recommended initializer for SELU self-normalizing networks.
float lecun_normal_stddev(std::size_t fan_in);

}  // namespace gpufreq::nn
