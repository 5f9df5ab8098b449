#pragma once

#include <cstdint>

#include "gpufreq/core/dataset.hpp"
#include "gpufreq/nn/serialize.hpp"
#include "gpufreq/nn/trainer.hpp"

namespace gpufreq::core {

/// What a model predicts.
enum class Target { kPower, kTime };

/// Hyper-parameters for one model, defaulted to the paper's §4.3 choices.
struct ModelConfig {
  std::size_t hidden_layers = 3;
  std::size_t hidden_units = 64;
  nn::Activation activation = nn::Activation::kSelu;
  std::string optimizer = "rmsprop";
  double learning_rate = -1.0;       ///< <=0: optimizer default
  std::size_t batch_size = 64;
  std::size_t epochs = 100;          ///< paper: 100 (power), 25 (time)
  double validation_split = 0.2;
  std::uint64_t seed = 0xD00DULL;

  /// The paper's configurations.
  static ModelConfig paper_power_model();
  static ModelConfig paper_time_model();
};

/// A trained DNN regressor for one target: network + input scaler + target
/// scaler. Inputs/targets are standardized for training and mapped back on
/// prediction.
class DnnModel {
 public:
  /// Reusable scratch for predict_into: the standardized input matrix plus
  /// the network's inference workspace. Grows to the model's
  /// shapes on first use, then steady-state predictions allocate nothing.
  /// One per thread; a single workspace serves both the power and time
  /// models if they are called sequentially.
  struct Workspace {
    nn::InferenceWorkspace net;
    nn::Matrix scaled;
  };

  DnnModel() = default;

  /// Train on the dataset for the given target. Returns the loss history
  /// (Figure 6 material).
  nn::TrainHistory train(const Dataset& dataset, Target target, const ModelConfig& config);

  bool trained() const { return trained_; }
  Target target() const { return target_; }

  /// Predict the (normalized) target for a feature matrix: TDP fraction for
  /// power models, slowdown for time models.
  std::vector<double> predict(const nn::Matrix& x) const;

  /// predict() into caller-owned scratch and output (out.size() must equal
  /// x.rows()). Bitwise-identical results to predict(), without its
  /// per-call allocations.
  void predict_into(const nn::Matrix& x, Workspace& ws, std::span<double> out) const;

  /// Pre-grow `ws` for predict_into batches of up to `max_rows` rows, so
  /// even the first prediction through the workspace allocates nothing.
  void reserve_workspace(Workspace& ws, std::size_t max_rows) const;

  /// Predict for a single feature row.
  double predict_one(std::span<const float> x) const;

  /// Access for serialization / the model cache.
  const nn::ModelBundle& bundle() const { return bundle_; }
  void restore(nn::ModelBundle bundle, Target target);

 private:
  nn::ModelBundle bundle_;
  Target target_ = Target::kPower;
  bool trained_ = false;
};

/// The pair of models the methodology trains once, offline.
struct PowerTimeModels {
  DnnModel power;
  DnnModel time;
  FeatureConfig features;
  nn::TrainHistory power_history;
  nn::TrainHistory time_history;
};

}  // namespace gpufreq::core
