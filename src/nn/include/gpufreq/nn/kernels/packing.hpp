#pragma once

#include <cstddef>
#include <vector>

#include "gpufreq/nn/matrix.hpp"

namespace gpufreq::nn::kernels {

/// Width (in floats) of one packed weight panel. Shared by every backend
/// so a model packed once serves whichever backend dispatch selects; 16 is
/// two 8-float AVX2 lanes and matches the register tile of the GEMM
/// microkernels.
inline constexpr std::size_t kPanelWidth = 16;

/// A layer's weight matrix (in x out, row-major) repacked into
/// cache/SIMD-friendly column panels: panel p holds columns
/// [p*16, p*16+16) contiguously, row-major within the panel (row stride
/// 16), with tail columns zero-padded. The fused dense_bias_act kernel
/// then streams each panel sequentially instead of striding by the layer
/// width. Packing is done once per loaded/trained model
/// (Network::prepare_inference); mutating the weights afterwards
/// invalidates the pack (DenseLayer clears it on every gradient update).
class PackedWeights {
 public:
  PackedWeights() = default;

  bool empty() const { return data_.empty(); }
  std::size_t rows() const { return rows_; }  ///< input dim (k)
  std::size_t cols() const { return cols_; }  ///< output dim (n), unpadded
  std::size_t panel_count() const { return (cols_ + kPanelWidth - 1) / kPanelWidth; }

  /// Panel p as a k x 16 row-major block.
  const float* panel(std::size_t p) const { return data_.data() + p * rows_ * kPanelWidth; }

  /// Pack `w`; reuses capacity, so re-packing after training never grows.
  void pack(const Matrix& w);

  /// Drop the packed payload (weights changed; pack is stale).
  void clear();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace gpufreq::nn::kernels
