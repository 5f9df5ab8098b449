// End-to-end equivalence of the training step: Trainer::fit, whose forward
// pass emits act'(z) from a fused kernel and whose backward pass reads it,
// must train bitwise the same weights and loss histories as a reference
// fit built from separate passes (GEMM, bias add, activation; derivative
// recomputed from the stored z; dL/dX through a plain-loop transpose of
// W). Every available backend, for SELU, ReLU and tanh on the paper
// architecture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "gpufreq/nn/kernels/dispatch.hpp"
#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/nn/loss.hpp"
#include "gpufreq/nn/network.hpp"
#include "gpufreq/nn/optimizer.hpp"
#include "gpufreq/nn/trainer.hpp"
#include "gpufreq/util/rng.hpp"
#include "unfused_training_reference.hpp"

namespace gpufreq::nn {
namespace {

namespace ref = unfused_reference;

struct RefLayer {
  Matrix w;
  std::vector<float> b;
  Activation act;
  std::size_t slot_w = 0, slot_b = 0;
  Matrix x;  // forward input
  Matrix z;  // pre-activation
  Matrix y;  // activation
};

// One layer forward as the unfused step composed it: gemm_row_band, bias add,
// activate over the stored z.
void ref_forward(const kernels::KernelTable& kt, RefLayer& l, const Matrix& x) {
  l.x = x;
  const std::vector<float> z = ref::pre_activation(kt, x.flat().data(), l.w.flat().data(),
                                                   l.b.data(), x.rows(), l.w.rows(), l.w.cols());
  l.z = Matrix(x.rows(), l.w.cols());
  std::copy(z.begin(), z.end(), l.z.flat().begin());
  l.y = l.z;
  for (float& v : l.y.flat()) v = ref::act(kt, l.act, v);
}

const Matrix& ref_predict(const kernels::KernelTable& kt, std::vector<RefLayer>& layers,
                          const Matrix& x) {
  const Matrix* cur = &x;
  for (RefLayer& l : layers) {
    ref_forward(kt, l, *cur);
    cur = &l.y;
  }
  return *cur;
}

double ref_train_step(const kernels::KernelTable& kt, std::vector<RefLayer>& layers,
                      const Matrix& x, const Matrix& y, Loss loss, Optimizer& opt) {
  const Matrix& pred = ref_predict(kt, layers, x);
  const double batch_loss = compute_loss(loss, pred, y);
  Matrix grad;
  loss_gradient(loss, pred, y, grad);
  std::vector<Matrix> grad_w(layers.size());
  std::vector<std::vector<float>> grad_b(layers.size());
  for (std::size_t i = layers.size(); i-- > 0;) {
    RefLayer& l = layers[i];
    // dL/dZ = act'(Z) * dL/dY, the derivative recomputed from z.
    Matrix dz = l.z;
    for (std::size_t e = 0; e < dz.size(); ++e) {
      dz.flat()[e] = ref::derivative(kt, l.act, l.z.flat()[e]) * grad.flat()[e];
    }
    gemm_tn(l.x, dz, grad_w[i]);
    grad_b[i].assign(l.b.size(), 0.0f);
    kt.column_sums(dz.flat().data(), grad_b[i].data(), dz.rows(), dz.cols());
    const float inv_batch = 1.0f / static_cast<float>(dz.rows());
    for (float& v : grad_w[i].flat()) v *= inv_batch;
    for (float& v : grad_b[i]) v *= inv_batch;
    const Matrix wt = ref::transposed(l.w);
    Matrix dx(dz.rows(), l.w.rows());
    kt.gemm_row_band(dz.flat().data(), wt.flat().data(), dx.flat().data(), l.w.cols(),
                     l.w.rows(), 0, dz.rows());
    grad = std::move(dx);
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    opt.update(layers[i].slot_w, layers[i].w.flat(), grad_w[i].flat());
    opt.update(layers[i].slot_b, layers[i].b, grad_b[i]);
  }
  opt.tick();
  return batch_loss;
}

Matrix gather(const Matrix& src, const std::vector<std::size_t>& idx, std::size_t begin,
              std::size_t end) {
  Matrix out(end - begin, src.cols());
  for (std::size_t i = begin; i < end; ++i) {
    const auto row = src.row(idx[i]);
    std::copy(row.begin(), row.end(), out.row(i - begin).begin());
  }
  return out;
}

// Trainer::fit's schedule (split, per-epoch shuffle, batches, validation
// loss) over the reference step. No early stopping.
TrainHistory ref_fit(const kernels::KernelTable& kt, std::vector<RefLayer>& layers,
                     const TrainConfig& c, const Matrix& x, const Matrix& y) {
  Rng rng(c.shuffle_seed);
  const std::vector<std::size_t> order = rng.permutation(x.rows());
  auto n_val = static_cast<std::size_t>(c.validation_split * static_cast<double>(x.rows()));
  if (c.validation_split > 0.0 && n_val == 0) n_val = 1;
  const std::size_t n_train = x.rows() - n_val;
  const Matrix x_val = gather(x, order, n_train, x.rows());
  const Matrix y_val = gather(y, order, n_train, x.rows());
  auto opt = make_optimizer(c.optimizer, c.learning_rate);
  for (RefLayer& l : layers) {
    l.slot_w = opt->register_slot(l.w.size());
    l.slot_b = opt->register_slot(l.b.size());
  }
  TrainHistory h;
  std::vector<std::size_t> batch_order(n_train);
  std::iota(batch_order.begin(), batch_order.end(), std::size_t{0});
  for (std::size_t epoch = 0; epoch < c.epochs; ++epoch) {
    if (c.shuffle_each_epoch) batch_order = rng.permutation(n_train);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n_train; start += c.batch_size) {
      const std::size_t end = std::min(start + c.batch_size, n_train);
      std::vector<std::size_t> rows(end - start);
      for (std::size_t i = start; i < end; ++i) rows[i - start] = order[batch_order[i]];
      const Matrix xb = gather(x, rows, 0, rows.size());
      const Matrix yb = gather(y, rows, 0, rows.size());
      epoch_loss += ref_train_step(kt, layers, xb, yb, c.loss, *opt);
      ++batches;
    }
    h.train_loss.push_back(epoch_loss / static_cast<double>(batches));
    h.val_loss.push_back(compute_loss(c.loss, ref_predict(kt, layers, x_val), y_val));
  }
  return h;
}

std::vector<kernels::Backend> available_backends() {
  std::vector<kernels::Backend> b = {kernels::Backend::kScalar};
  if (kernels::avx2_available()) b.push_back(kernels::Backend::kAvx2);
  if (kernels::avx512_available()) b.push_back(kernels::Backend::kAvx512);
  return b;
}

TEST(TrainEquivalence, FusedStepTrainsTheReferenceWeightsAndLossesBitwise) {
  Rng rng(61);
  // 700 rows: 560 train (8 full batches + a 48-row tail), 140 validation.
  Matrix x(700, 3), y(700, 1);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = static_cast<float>(rng.uniform(-2.0, 2.0));
    y(i, 0) = std::sin(x(i, 0)) * std::exp(0.3f * x(i, 1)) + 0.5f * x(i, 2);
  }
  TrainConfig c;
  c.epochs = 3;
  for (kernels::Backend backend : available_backends()) {
    SCOPED_TRACE(kernels::to_string(backend));
    kernels::set_kernel_backend(backend);
    const kernels::KernelTable& kt = kernels::active();
    for (Activation act : {Activation::kSelu, Activation::kRelu, Activation::kTanh}) {
      SCOPED_TRACE(to_string(act));
      Network net(3, Network::paper_architecture(3, 64, act), 19);
      std::vector<RefLayer> layers;
      for (std::size_t i = 0; i < net.num_layers(); ++i) {
        layers.push_back({net.layer(i).weights(), net.layer(i).bias(),
                          net.layer(i).activation(), 0, 0, {}, {}, {}});
      }
      const TrainHistory got = Trainer(c).fit(net, x, y);
      const TrainHistory want = ref_fit(kt, layers, c, x, y);

      ASSERT_EQ(got.train_loss.size(), want.train_loss.size());
      for (std::size_t e = 0; e < want.train_loss.size(); ++e) {
        EXPECT_EQ(got.train_loss[e], want.train_loss[e]) << "train loss, epoch " << e;
        EXPECT_EQ(got.val_loss[e], want.val_loss[e]) << "val loss, epoch " << e;
      }
      for (std::size_t l = 0; l < layers.size(); ++l) {
        SCOPED_TRACE(::testing::Message() << "layer " << l);
        const auto w = net.layer(l).weights().flat();
        const auto wr = layers[l].w.flat();
        ASSERT_EQ(w.size(), wr.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < w.size(); ++i) mismatches += w[i] != wr[i];
        EXPECT_EQ(mismatches, 0u);
        EXPECT_EQ(net.layer(l).bias(), layers[l].b);
      }
    }
  }
  kernels::set_kernel_backend(kernels::Backend::kAuto);
}

}  // namespace
}  // namespace gpufreq::nn
