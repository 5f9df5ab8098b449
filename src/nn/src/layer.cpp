#include "gpufreq/nn/layer.hpp"

#include <span>

#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/hot_path.hpp"

namespace gpufreq::nn {

DenseLayer::DenseLayer(std::size_t in_dim, std::size_t out_dim, Activation act)
    : w_(in_dim, out_dim), b_(out_dim, 0.0f), act_(act) {
  GPUFREQ_REQUIRE(in_dim > 0 && out_dim > 0, "DenseLayer: dimensions must be positive");
}

void DenseLayer::init_lecun_normal(Rng& rng) {
  const float stddev = lecun_normal_stddev(w_.rows());
  for (float& v : w_.flat()) v = static_cast<float>(rng.normal(0.0, stddev));
  for (float& v : b_) v = 0.0f;
}

void DenseLayer::register_params(Optimizer& opt) {
  slot_w_ = opt.register_slot(w_.size());
  slot_b_ = opt.register_slot(b_.size());
}

void DenseLayer::forward(const Matrix& x, Matrix& out) {
  GPUFREQ_REQUIRE(x.cols() == w_.rows(), "DenseLayer::forward: input width mismatch");
  cached_x_ = &x;
  const std::size_t rows = x.rows(), m = w_.cols();
  out.resize_uninit(rows, m);
  deriv_.resize_uninit(rows, m);
  kernels::active().dense_forward_band(x.flat().data(), w_.flat().data(), b_.data(), act_,
                                       out.flat().data(), deriv_.flat().data(), w_.rows(), m,
                                       0, rows);
  GPUFREQ_DCHECK_FINITE(out);
}

void DenseLayer::forward_rows(const float* x, float* y, std::size_t rows) const {
  GPUFREQ_HOT("gpufreq::nn::DenseLayer::forward_rows");
  kernels::active().dense_forward_band(x, w_.flat().data(), b_.data(), act_, y, nullptr,
                                       w_.rows(), w_.cols(), 0, rows);
  const std::span<const float> out(y, rows * w_.cols());
  GPUFREQ_DCHECK_FINITE(out);
}

void DenseLayer::backward(const Matrix& delta, Matrix* dx) {
  GPUFREQ_REQUIRE(cached_x_ != nullptr, "DenseLayer::backward: forward not called");
  GPUFREQ_REQUIRE(delta.rows() == deriv_.rows() && delta.cols() == deriv_.cols(),
                  "DenseLayer::backward: delta shape mismatch (forward not called?)");
  // dL/dZ = act'(Z) * dL/dY, with act'(Z) as the forward pass wrote it.
  delta_z_.resize_uninit(delta.rows(), delta.cols());
  const float* d = deriv_.flat().data();
  const float* dy = delta.flat().data();
  float* dz = delta_z_.flat().data();
  for (std::size_t i = 0; i < delta_z_.size(); ++i) dz[i] = d[i] * dy[i];

  // Parameter gradients, averaged over the batch.
  gemm_tn(*cached_x_, delta_z_, grad_w_);
  grad_b_.resize(b_.size());
  column_sums(delta_z_, grad_b_);  // column_sums zero-fills grad_b_ itself
  const float inv_batch = 1.0f / static_cast<float>(delta.rows());
  for (float& v : grad_w_.flat()) v *= inv_batch;
  for (float& v : grad_b_) v *= inv_batch;

  if (dx == nullptr) return;
  // dL/dX = dL/dZ * W^T: one block transpose of W, then the same row-band
  // GEMM as the forward pass.
  const kernels::KernelTable& kt = kernels::active();
  wt_.resize_uninit(w_.cols(), w_.rows());
  kt.transpose(w_.flat().data(), wt_.flat().data(), w_.rows(), w_.cols());
  dx->resize_uninit(delta.rows(), w_.rows());
  kt.gemm_row_band(dz, wt_.flat().data(), dx->flat().data(), w_.cols(), w_.rows(), 0,
                   delta.rows());
  GPUFREQ_DCHECK_FINITE(*dx);
}

void DenseLayer::apply_gradients(Optimizer& opt) {
  GPUFREQ_REQUIRE(slot_w_ != static_cast<std::size_t>(-1),
                  "DenseLayer: register_params was not called");
  opt.update(slot_w_, w_.flat(), grad_w_.flat());
  opt.update(slot_b_, b_, grad_b_);
}

}  // namespace gpufreq::nn
