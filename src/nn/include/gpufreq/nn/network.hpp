#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpufreq/nn/layer.hpp"
#include "gpufreq/nn/loss.hpp"

namespace gpufreq::nn {

/// One layer of a feedforward-network architecture description.
struct LayerSpec {
  std::size_t units = 64;
  Activation activation = Activation::kSelu;
};

/// Reusable scratch for Network::predict_into, which runs chunk-major:
/// each 48-row chunk of the batch passes through every layer before the
/// chunk after it starts. The rows split into one contiguous band per
/// pool thread (never more bands than chunks), each a whole number of
/// chunks; a band walks its chunks in order, ping-ponging their hidden
/// activations between the two 48-row tiles of its own region of
/// `tiles_`. So the buffer holds bands x 2 x 48 x widest-hidden floats
/// (24 KiB per band for the paper model, small enough to stay in L1)
/// whatever the batch size. The last layer writes straight into `out_`,
/// the matrix predict_into returns. Capacity only grows, so steady-state
/// inference performs no heap allocation. One workspace serves any number
/// of networks; share one per thread, not across threads.
class InferenceWorkspace {
 public:
  InferenceWorkspace() = default;

 private:
  friend class Network;
  Matrix out_;    // result: rows x output_dim
  Matrix tiles_;  // one hidden-activation region per band
};

/// Standard feedforward neural network (the paper's FNN, §4.3): a stack of
/// dense layers. The paper's architecture — three hidden layers of 64 SELU
/// units plus a linear output — is available via `paper_architecture()`.
class Network {
 public:
  /// Build a network; weights are LeCun-normal initialized from `seed`.
  Network(std::size_t input_dim, const std::vector<LayerSpec>& layers, std::uint64_t seed);

  /// Assemble a network from layers whose weights are already set (model
  /// load): each layer's in_dim must equal the previous layer's out_dim.
  /// Draws no random numbers.
  explicit Network(std::vector<DenseLayer> layers);

  /// Empty network (a placeholder to move or assign into).
  Network() = default;

  std::size_t input_dim() const;
  std::size_t output_dim() const;
  std::size_t num_layers() const { return layers_.size(); }
  const DenseLayer& layer(std::size_t i) const { return layers_[i]; }
  DenseLayer& layer(std::size_t i) { return layers_[i]; }

  /// Total trainable parameter count.
  std::size_t parameter_count() const;

  /// Inference: Y = f(X), no training caches touched. Thread-compatible
  /// (const) but not re-entrant with train_step on the same object.
  /// Convenience wrapper over predict_into (per-thread workspace); the
  /// returned matrix is the only allocation it makes in steady state.
  /// Rejects empty batches (x.rows() == 0).
  Matrix predict(const Matrix& x) const;

  /// Inference into a caller-owned workspace; the returned reference
  /// points into the workspace and stays valid until the workspace is
  /// reused. This is the chunk-major fused forward — allocation-free once
  /// the workspace has grown to the batch (see reserve_workspace). Every
  /// layer runs the training forward's kernel over its weights as they
  /// are, so nothing needs preparing after training or loading.
  const Matrix& predict_into(const Matrix& x, InferenceWorkspace& ws) const;

  /// Convenience for single-output networks: predict a column vector.
  std::vector<double> predict_vector(const Matrix& x) const;

  /// Single-output inference into a caller-owned span (out.size() must
  /// equal x.rows()); allocation-free like predict_into.
  void predict_vector_into(const Matrix& x, InferenceWorkspace& ws,
                           std::span<double> out) const;

  /// Pre-grow `ws` for batches of up to `max_rows` rows through this
  /// network at the current pool size, so a later predict_into at or below
  /// that batch size performs no allocation even on its first call (a
  /// larger pool needs more tile regions). Capacity only grows.
  void reserve_workspace(InferenceWorkspace& ws, std::size_t max_rows) const;

  /// One optimizer step on a mini-batch; returns the batch loss before the
  /// update. `opt` must have been bound with bind_optimizer first.
  double train_step(const Matrix& x, const Matrix& y, Loss loss, Optimizer& opt);

  /// Register all layer parameters with the optimizer. Must be called once
  /// per (network, optimizer) pair before train_step.
  void bind_optimizer(Optimizer& opt);

  /// Mean loss on a dataset (no update), through predict_into on a
  /// per-thread workspace: no heap allocation once it has grown to the
  /// dataset.
  double evaluate(const Matrix& x, const Matrix& y, Loss loss) const;

  /// The paper's model: 3 hidden layers x 64 SELU neurons -> 1 linear.
  static std::vector<LayerSpec> paper_architecture(std::size_t hidden_layers = 3,
                                                   std::size_t units = 64,
                                                   Activation act = Activation::kSelu);

 private:
  std::vector<DenseLayer> layers_;
  // Scratch buffers reused across train steps.
  std::vector<Matrix> fwd_;
  Matrix grad_, dx_;
};

}  // namespace gpufreq::nn
