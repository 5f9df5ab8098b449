#include "gpufreq/nn/kernels/packing.hpp"

#include <algorithm>

#include "gpufreq/util/error.hpp"

namespace gpufreq::nn::kernels {

void PackedWeights::pack(const Matrix& w) {
  GPUFREQ_REQUIRE(w.rows() > 0 && w.cols() > 0, "PackedWeights::pack: empty weight matrix");
  rows_ = w.rows();
  cols_ = w.cols();
  const std::size_t panels = panel_count();
  data_.resize(panels * rows_ * kPanelWidth);
  const float* W = w.flat().data();
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t j0 = p * kPanelWidth;
    const std::size_t jn = std::min(kPanelWidth, cols_ - j0);
    float* dst = data_.data() + p * rows_ * kPanelWidth;
    for (std::size_t r = 0; r < rows_; ++r) {
      const float* src = W + r * cols_ + j0;
      for (std::size_t j = 0; j < jn; ++j) dst[r * kPanelWidth + j] = src[j];
      for (std::size_t j = jn; j < kPanelWidth; ++j) dst[r * kPanelWidth + j] = 0.0f;
    }
  }
}

void PackedWeights::clear() {
  rows_ = 0;
  cols_ = 0;
  data_.clear();
}

}  // namespace gpufreq::nn::kernels
