#include "gpufreq/nn/activations.hpp"

#include <cmath>

#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/util/error.hpp"
#include "kernels/scalar_math.hpp"

namespace gpufreq::nn {

const char* to_string(Activation act) {
  switch (act) {
    case Activation::kLinear: return "linear";
    case Activation::kRelu: return "relu";
    case Activation::kElu: return "elu";
    case Activation::kLeakyRelu: return "leaky_relu";
    case Activation::kSelu: return "selu";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kTanh: return "tanh";
    case Activation::kSoftplus: return "softplus";
    case Activation::kSoftsign: return "softsign";
  }
  return "?";
}

Activation activation_from_string(const std::string& name) {
  for (Activation a : {Activation::kLinear, Activation::kRelu, Activation::kElu,
                       Activation::kLeakyRelu, Activation::kSelu, Activation::kSigmoid,
                       Activation::kTanh, Activation::kSoftplus, Activation::kSoftsign}) {
    if (name == to_string(a)) return a;
  }
  throw InvalidArgument("activation_from_string: unknown activation '" + name + "'");
}

float activate(Activation act, float x) { return kernels::scalar_math::value_f(act, x); }

float activate_derivative(Activation act, float x) {
  return kernels::scalar_math::derivative_f(act, x);
}

// The span overload goes through the kernel dispatch table: the scalar
// backend is the original hoisted-switch loop over the same inlined
// elementwise kernels as the scalar overload above (so the two stay
// bit-identical under the scalar backend), and the AVX2 backend evaluates
// the same polynomial with hand-placed FMAs.
void activate(Activation act, std::span<const float> z, std::span<float> out) {
  GPUFREQ_REQUIRE(z.size() == out.size(), "activate: size mismatch");
  kernels::active().activate(act, z.data(), out.data(), nullptr, z.size());
}

float lecun_normal_stddev(std::size_t fan_in) {
  GPUFREQ_REQUIRE(fan_in > 0, "lecun_normal_stddev: fan_in must be positive");
  return 1.0f / std::sqrt(static_cast<float>(fan_in));
}

}  // namespace gpufreq::nn
