#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "gpufreq/core/models.hpp"
#include "gpufreq/core/profiles.hpp"

namespace gpufreq::core {

/// Configuration of the offline training phase (§4, Figure 2 left side).
struct OfflineConfig {
  dcgm::CollectionConfig collection{
      .frequencies_mhz = {},    // all "used" frequencies of the device
      .runs = 3,                // paper: three runs per configuration
      .sample_interval_s = 0.02,
      .samples_per_run = 4,
      .input_scale = 1.0,
  };
  ModelConfig power_model = ModelConfig::paper_power_model();
  ModelConfig time_model = ModelConfig::paper_time_model();
  FeatureConfig features;
};

/// Offline phase: run every training workload across the DVFS space on the
/// (simulated) training GPU, build the feature dataset, and train the power
/// and time DNNs.
class OfflineTrainer {
 public:
  explicit OfflineTrainer(OfflineConfig config = {});

  const OfflineConfig& config() const { return config_; }

  /// Profile the suite and build the supervised dataset.
  Dataset collect_dataset(sim::GpuDevice& device,
                          const std::vector<workloads::WorkloadDescriptor>& suite) const;

  /// Train both models on an existing dataset.
  PowerTimeModels train_on(const Dataset& dataset) const;

  /// collect_dataset + train_on in one call.
  PowerTimeModels train(sim::GpuDevice& device,
                        const std::vector<workloads::WorkloadDescriptor>& suite) const;

 private:
  OfflineConfig config_;
};

/// Reusable scratch + results for OnlinePredictor::predict_sweep. Holds
/// everything one DVFS sweep touches — the sorted frequency list, the
/// shared feature matrix both models read, per-model inference scratch,
/// and the output vectors — so a warmed-up workspace makes the whole
/// 61-configuration sweep without a single heap allocation. One per
/// thread.
struct SweepWorkspace {
  std::vector<double> frequencies;  ///< sorted sweep order (ascending MHz)
  std::vector<double> power_w;      ///< predicted board power per config
  std::vector<double> time_s;       ///< predicted execution time per config
  std::vector<double> energy_j;     ///< power * time (Equation 8)

  nn::Matrix features;              ///< sweep x feature_dim, shared by both models
  DnnModel::Workspace power_model;
  DnnModel::Workspace time_model;
};

/// One entry of a fused multi-request sweep: the max-frequency counters
/// and wall time of one application, plus the frequency grid to sweep it
/// across. `counters` and `frequencies` are borrowed — they must stay
/// alive until predict_sweep_batch returns.
struct BatchSweepItem {
  const sim::CounterSet* counters = nullptr;
  double measured_time_at_max_s = 0.0;
  std::span<const double> frequencies;
};

/// Reusable scratch + results for OnlinePredictor::predict_sweep_batch.
/// All per-config arrays are concatenated item-major; `offsets` maps item
/// i to its row range [offsets[i], offsets[i+1]). Like SweepWorkspace, a
/// warmed-up instance serves any batch at or below its high-water mark
/// without a single heap allocation. One per drain thread.
struct BatchSweepWorkspace {
  std::vector<std::size_t> offsets;  ///< item -> first row (size items+1)
  std::vector<double> frequencies;   ///< per-item sorted grids, concatenated
  std::vector<double> power_w;
  std::vector<double> time_s;
  std::vector<double> energy_j;

  nn::Matrix features;               ///< total_rows x feature_dim
  DnnModel::Workspace power_model;
  DnnModel::Workspace time_model;

  std::size_t items() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::size_t rows(std::size_t item) const { return offsets[item + 1] - offsets[item]; }
  std::span<const double> item_frequencies(std::size_t item) const {
    return {frequencies.data() + offsets[item], rows(item)};
  }
  std::span<const double> item_power(std::size_t item) const {
    return {power_w.data() + offsets[item], rows(item)};
  }
  std::span<const double> item_time(std::size_t item) const {
    return {time_s.data() + offsets[item], rows(item)};
  }
  std::span<const double> item_energy(std::size_t item) const {
    return {energy_j.data() + offsets[item], rows(item)};
  }
};

/// Online phase (§4, Figure 2 right side): execute an application once, at
/// the maximum frequency only, then predict its power/time/energy across
/// every DVFS configuration by replicating its (frequency-invariant)
/// features with the clock feature swapped.
class OnlinePredictor {
 public:
  /// The predictor borrows the models const and never repacks them.
  explicit OnlinePredictor(const PowerTimeModels& models);

  /// Predicted DVFS profile for the workload on the given device. `runs`
  /// controls the max-frequency feature acquisition (paper: one execution).
  DvfsProfile predict(sim::GpuDevice& device, const workloads::WorkloadDescriptor& wl,
                      std::vector<double> frequencies = {}, int runs = 1,
                      double input_scale = 1.0) const;

  /// Predict from already-acquired max-frequency counters plus the measured
  /// wall time, without touching a device (pure model inference).
  DvfsProfile predict_from_features(const sim::CounterSet& max_freq_counters,
                                    double measured_time_at_max_s, const sim::GpuSpec& spec,
                                    const std::vector<double>& frequencies,
                                    const std::string& workload_name) const;

  /// The allocation-free core of predict_from_features: sorts the
  /// frequencies into ws.frequencies, builds the shared feature matrix
  /// once, runs both models through the fused inference path, and leaves
  /// the clamped power/time/energy curves in ws. predict_from_features is
  /// a thin wrapper that copies the workspace into a DvfsProfile.
  void predict_sweep(const sim::CounterSet& max_freq_counters, double measured_time_at_max_s,
                     const sim::GpuSpec& spec, const std::vector<double>& frequencies,
                     SweepWorkspace& ws) const;

  /// Fused multi-request sweep: the feature rows of every item are stacked
  /// into ONE matrix and each model runs a single large fused GEMM chain
  /// over it, amortizing kernel dispatch, scaler transforms, finite
  /// checks, and weight-panel cache traffic across the whole batch. Every
  /// per-row computation (feature extraction, both models, clamps) is
  /// row-local in the kernel contract, so each item's slice of the result
  /// is bitwise identical to an independent predict_sweep of that item.
  /// Items may carry ragged (different-length) frequency grids; each grid
  /// is sorted ascending into ws.frequencies exactly as predict_sweep
  /// sorts its input. Allocation-free once ws is warmed (or reserved via
  /// reserve_batch_workspace).
  void predict_sweep_batch(std::span<const BatchSweepItem> items, const sim::GpuSpec& spec,
                           BatchSweepWorkspace& ws) const;

  /// Pre-grow `ws` for batches of up to `max_items` items and `max_rows`
  /// total configurations, so the first drain is already allocation-free.
  void reserve_batch_workspace(BatchSweepWorkspace& ws, std::size_t max_items,
                               std::size_t max_rows) const;

 private:
  const PowerTimeModels& models_;
  /// Metric names resolved once at construction so the sweep extraction
  /// loops run string-free (hot-path purity contract, DESIGN.md §8).
  FeaturePlan feature_plan_;
};

}  // namespace gpufreq::core
