#pragma once

#include <cstddef>
#include <vector>

#include "gpufreq/nn/activations.hpp"
#include "gpufreq/nn/matrix.hpp"
#include "gpufreq/nn/optimizer.hpp"
#include "gpufreq/util/rng.hpp"

namespace gpufreq::nn {

/// Fully connected layer: Y = act(X * W + b), with the backward pass and
/// gradient buffers needed for mini-batch training.
class DenseLayer {
 public:
  DenseLayer(std::size_t in_dim, std::size_t out_dim, Activation act);

  std::size_t in_dim() const { return w_.rows(); }
  std::size_t out_dim() const { return w_.cols(); }
  Activation activation() const { return act_; }

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  std::vector<float>& bias() { return b_; }
  const std::vector<float>& bias() const { return b_; }

  /// LeCun-normal init (recommended for SELU).
  void init_lecun_normal(Rng& rng);

  /// Register W and b with the optimizer (once, before training).
  void register_params(Optimizer& opt);

  /// Training forward on the calling thread: one fused kernel writes the
  /// activations to `out` and act'(Z) for the backward pass, and the layer
  /// keeps a reference to X. `x` must stay alive (and unmodified) until
  /// backward() — Network::train_step guarantees this for its batch.
  void forward(const Matrix& x, Matrix& out);

  /// Fused forward over `rows` contiguous rows (no caching):
  /// y = act(x * W + b) through the active backend's dense_forward_band,
  /// the training forward's kernel, so a row gets the bits training and
  /// evaluation give it. `x` is rows x in_dim and `y` rows x out_dim, both
  /// dense row-major. Rows are independent, so disjoint row ranges may run
  /// concurrently.
  void forward_rows(const float* x, float* y, std::size_t rows) const;

  /// Backward on the calling thread: `delta` is dL/dY (batch x out).
  /// Computes parameter gradients (averaged over the batch) and, unless
  /// `dx` is null (the first layer, whose dL/dX nobody reads), overwrites
  /// `*dx` with dL/dX.
  void backward(const Matrix& delta, Matrix* dx);

  /// Apply the optimizer to W and b using the last computed gradients.
  void apply_gradients(Optimizer& opt);

 private:
  Matrix w_;               // in x out
  std::vector<float> b_;   // out
  Activation act_;

  Matrix grad_w_;
  std::vector<float> grad_b_;
  const Matrix* cached_x_ = nullptr;  // borrowed forward input (batch x in)
  Matrix deriv_;           // batch x out: act'(Z) from the forward pass
  Matrix delta_z_;         // scratch: dL/dZ
  Matrix wt_;              // scratch: W^T (out x in) for dL/dX
  std::size_t slot_w_ = static_cast<std::size_t>(-1);
  std::size_t slot_b_ = static_cast<std::size_t>(-1);
};

}  // namespace gpufreq::nn
