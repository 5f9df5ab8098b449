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
  packed_.clear();
  qpacked_.clear();
}

void DenseLayer::register_params(Optimizer& opt) {
  slot_w_ = opt.register_slot(w_.size());
  slot_b_ = opt.register_slot(b_.size());
}

void DenseLayer::forward(const Matrix& x, Matrix& out) {
  GPUFREQ_REQUIRE(x.cols() == w_.rows(), "DenseLayer::forward: input width mismatch");
  cached_x_ = &x;
  gemm(x, w_, cached_z_);
  add_row_vector(cached_z_, b_);
  out.resize_uninit(cached_z_.rows(), cached_z_.cols());
  activate(act_, cached_z_.flat(), out.flat());
}

void DenseLayer::forward_rows(const float* x, float* y, std::size_t rows) const {
  GPUFREQ_HOT("gpufreq::nn::DenseLayer::forward_rows");
  GPUFREQ_REQUIRE(!packed_.empty(), "DenseLayer::forward_rows: weights not packed");
  kernels::active().dense_bias_act(x, packed_, b_.data(), act_, y, 0, rows);
  const std::span<const float> out(y, rows * w_.cols());
  GPUFREQ_DCHECK_FINITE(out);
}

void DenseLayer::forward_rows_i8(const float* x, std::int16_t* q, float* scales, float* y,
                                 std::size_t rows) const {
  GPUFREQ_HOT("gpufreq::nn::DenseLayer::forward_rows_i8");
  GPUFREQ_REQUIRE(!qpacked_.empty(), "DenseLayer::forward_rows_i8: int8 pack not prepared");
  // Quantization and the fused int8 GEMM are both row-local, so the two
  // stages run back to back over the same rows with no cross-row state.
  const kernels::KernelTable& kt = kernels::active();
  kt.quantize_rows_i8(x, w_.rows(), q, qpacked_.kpad(), scales, 0, rows);
  kt.dense_bias_act_i8(q, scales, qpacked_, b_.data(), act_, y, 0, rows);
  const std::span<const float> out(y, rows * w_.cols());
  GPUFREQ_DCHECK_FINITE(out);
}

void DenseLayer::prepare_inference(Precision precision) {
  packed_.pack(w_);
  if (precision == Precision::kInt8) qpacked_.pack(w_);
}

void DenseLayer::backward(const Matrix& delta, Matrix& dx) {
  GPUFREQ_REQUIRE(cached_x_ != nullptr, "DenseLayer::backward: forward not called");
  GPUFREQ_REQUIRE(delta.rows() == cached_z_.rows() && delta.cols() == cached_z_.cols(),
                  "DenseLayer::backward: delta shape mismatch (forward not called?)");
  // dL/dZ = act'(Z) * dL/dY, one fused pass
  delta_z_.resize_uninit(delta.rows(), delta.cols());
  kernels::active().activate_backward(act_, cached_z_.flat().data(), delta.flat().data(),
                                      delta_z_.flat().data(), delta_z_.size());

  // Parameter gradients, averaged over the batch.
  gemm_tn(*cached_x_, delta_z_, grad_w_);
  grad_b_.resize(b_.size());
  column_sums(delta_z_, grad_b_);  // column_sums zero-fills grad_b_ itself
  const float inv_batch = 1.0f / static_cast<float>(delta.rows());
  for (float& v : grad_w_.flat()) v *= inv_batch;
  for (float& v : grad_b_) v *= inv_batch;

  // dL/dX = dL/dZ * W^T
  gemm_nt(delta_z_, w_, dx);
}

void DenseLayer::apply_gradients(Optimizer& opt) {
  GPUFREQ_REQUIRE(slot_w_ != static_cast<std::size_t>(-1),
                  "DenseLayer: register_params was not called");
  opt.update(slot_w_, w_.flat(), grad_w_.flat());
  opt.update(slot_b_, b_, grad_b_);
  packed_.clear();
  qpacked_.clear();
}

}  // namespace gpufreq::nn
