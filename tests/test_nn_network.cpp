#include "gpufreq/nn/network.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "gpufreq/nn/kernels/dispatch.hpp"
#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/util/thread_pool.hpp"

namespace gpufreq::nn {
namespace {

Matrix make_inputs(std::size_t n, std::size_t d, Rng& rng) {
  Matrix x(n, d);
  for (float& v : x.flat()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

TEST(Network, PaperArchitectureShape) {
  const auto specs = Network::paper_architecture();
  ASSERT_EQ(specs.size(), 4u);  // 3 hidden + output
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(specs[i].units, 64u);
    EXPECT_EQ(specs[i].activation, Activation::kSelu);
  }
  EXPECT_EQ(specs[3].units, 1u);
  EXPECT_EQ(specs[3].activation, Activation::kLinear);
}

TEST(Network, ParameterCountPaperModel) {
  const Network net(3, Network::paper_architecture(), 1);
  // 3*64+64 + 64*64+64 + 64*64+64 + 64*1+1 = 8641
  EXPECT_EQ(net.parameter_count(), 8641u);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 1u);
  EXPECT_EQ(net.num_layers(), 4u);
}

TEST(Network, ConstructionValidation) {
  EXPECT_THROW(Network(0, Network::paper_architecture(), 1), InvalidArgument);
  EXPECT_THROW(Network(3, {}, 1), InvalidArgument);
  EXPECT_THROW(Network(3, {{0, Activation::kRelu}}, 1), InvalidArgument);
}

TEST(Network, PredictShapeAndDeterminism) {
  const Network net(3, Network::paper_architecture(), 7);
  Rng rng(3);
  const Matrix x = make_inputs(5, 3, rng);
  const Matrix y1 = net.predict(x);
  const Matrix y2 = net.predict(x);
  ASSERT_EQ(y1.rows(), 5u);
  ASSERT_EQ(y1.cols(), 1u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(y1(i, 0), y2(i, 0));
}

TEST(Network, SameSeedSameWeights) {
  const Network a(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 11);
  const Network b(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 11);
  Rng rng(5);
  const Matrix x = make_inputs(4, 2, rng);
  const Matrix ya = a.predict(x);
  const Matrix yb = b.predict(x);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(ya(i, 0), yb(i, 0));
}

TEST(Network, DifferentSeedDifferentWeights) {
  const Network a(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 11);
  const Network b(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 12);
  Rng rng(5);
  const Matrix x = make_inputs(4, 2, rng);
  EXPECT_NE(a.predict(x)(0, 0), b.predict(x)(0, 0));
}

TEST(Network, PredictVectorRequiresSingleOutput) {
  const Network multi(2, {{4, Activation::kRelu}, {2, Activation::kLinear}}, 1);
  Rng rng(5);
  const Matrix x = make_inputs(3, 2, rng);
  EXPECT_THROW(multi.predict_vector(x), InvalidArgument);
  const Network single(2, {{4, Activation::kRelu}, {1, Activation::kLinear}}, 1);
  EXPECT_EQ(single.predict_vector(x).size(), 3u);
}

// Analytic gradient check: compare backprop parameter gradients against
// central finite differences on a tiny network.
TEST(Network, GradientsMatchFiniteDifferences) {
  Network net(2, {{5, Activation::kTanh}, {1, Activation::kLinear}}, 3);
  Rng rng(9);
  const Matrix x = make_inputs(6, 2, rng);
  Matrix y(6, 1);
  for (std::size_t i = 0; i < 6; ++i) {
    y(i, 0) = std::sin(x(i, 0)) + 0.5f * x(i, 1);
  }

  // A zero-learning-rate SGD step computes (and discards) gradients while
  // leaving the parameters unchanged; we recover the gradients via a
  // second, tiny-lr step on a cloned network.
  const double h = 1e-3;
  Sgd probe(1e-9);
  net.bind_optimizer(probe);

  // Loss functional for finite differences.
  auto loss_at = [&](Network& n) { return n.evaluate(x, y, Loss::kMse); };

  // Perturb a handful of weights in each layer and compare the directional
  // derivative with backprop's gradient, recovered from the parameter
  // delta of one unit-lr SGD step on a copy.
  Network stepped = net;  // copy shares no state
  Sgd unit(1.0);
  stepped.bind_optimizer(unit);
  stepped.train_step(x, y, Loss::kMse, unit);

  int checked = 0;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    auto& w = net.layer(li).weights();
    const auto& w_after = stepped.layer(li).weights();
    for (std::size_t idx = 0; idx < w.size(); idx += std::max<std::size_t>(1, w.size() / 4)) {
      const std::size_t r = idx / w.cols();
      const std::size_t c = idx % w.cols();
      const float orig = w(r, c);
      // grad = (w_before - w_after) / lr, lr = 1, batch divides internally.
      const double grad_bp = static_cast<double>(orig) - static_cast<double>(w_after(r, c));

      w(r, c) = orig + static_cast<float>(h);
      const double lp = loss_at(net);
      w(r, c) = orig - static_cast<float>(h);
      const double lm = loss_at(net);
      w(r, c) = orig;
      const double grad_fd = (lp - lm) / (2.0 * h);
      EXPECT_NEAR(grad_bp, grad_fd, 2e-2 * std::max(1.0, std::abs(grad_fd)))
          << "layer " << li << " idx " << idx;
      ++checked;
    }
  }
  EXPECT_GE(checked, 8);
}

TEST(Network, TrainingReducesLossOnSmoothFunction) {
  Network net(2, {{16, Activation::kSelu}, {16, Activation::kSelu}, {1, Activation::kLinear}},
              17);
  Rng rng(21);
  const Matrix x = make_inputs(256, 2, rng);
  Matrix y(256, 1);
  for (std::size_t i = 0; i < 256; ++i) {
    y(i, 0) = x(i, 0) * x(i, 0) - 0.5f * x(i, 1);
  }
  RmsProp opt(1e-3);
  net.bind_optimizer(opt);
  const double before = net.evaluate(x, y, Loss::kMse);
  for (int epoch = 0; epoch < 120; ++epoch) net.train_step(x, y, Loss::kMse, opt);
  const double after = net.evaluate(x, y, Loss::kMse);
  EXPECT_LT(after, 0.2 * before);
}

TEST(Network, TrainStepRejectsMismatchedBatch) {
  Network net(2, {{4, Activation::kRelu}, {1, Activation::kLinear}}, 1);
  Sgd opt(0.1);
  net.bind_optimizer(opt);
  Matrix x(3, 2), y(2, 1);
  EXPECT_THROW(net.train_step(x, y, Loss::kMse, opt), InvalidArgument);
}

// Layer-by-layer reference for the chunk-major forward: every layer runs
// the backend's fused kernel over the whole batch in one call, with weights
// packed here from the layer's own matrix.
Matrix layer_by_layer(const Network& net, const Matrix& x, const kernels::KernelTable& kt) {
  Matrix cur = x;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const DenseLayer& l = net.layer(i);
    const std::size_t rows = cur.rows();
    Matrix out(rows, l.out_dim());
    kernels::PackedWeights pw;
    pw.pack(l.weights());
    kt.dense_bias_act(cur.flat().data(), pw, l.bias().data(), l.activation(), out.flat().data(),
                      0, rows);
    cur = std::move(out);
  }
  return cur;
}

// Index of the first element whose bits differ, or -1.
long first_mismatch(const Matrix& a, const Matrix& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a.flat()[i]) != std::bit_cast<std::uint32_t>(b.flat()[i])) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

struct ScopedBackend {
  explicit ScopedBackend(kernels::Backend b) { kernels::set_kernel_backend(b); }
  ~ScopedBackend() {
    kernels::set_kernel_backend(kernels::Backend::kAuto);
    set_num_threads(0);
  }
};

TEST(NetworkChunkMajor, MatchesLayerByLayerBitwise) {
  // Row counts around the 8-row avx512 tile, the 6-row avx2 tile and the
  // 48-row chunk, the 61-row sweep, two sweeps, and a full 128-item drain.
  const std::size_t kRows[] = {1, 5, 7, 8, 9, 13, 47, 48, 49, 61, 122, 7808};
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::avx2_available()) backends.push_back(kernels::Backend::kAvx2);
  if (kernels::avx512_available()) backends.push_back(kernels::Backend::kAvx512);
  // The paper model, plus ragged widths: an odd input, hidden layers of
  // different widths (the tile stride is the widest) and a multi-panel
  // output with a masked tail.
  Network paper(3, Network::paper_architecture(), 41);
  Network ragged(7, {{33, Activation::kRelu}, {64, Activation::kTanh}, {17, Activation::kLinear}},
                 43);
  for (Network* net : {&paper, &ragged}) {
    net->prepare_inference();
    Rng rng(net->input_dim());
    const Matrix big = make_inputs(7808, net->input_dim(), rng);
    for (kernels::Backend b : backends) {
      ScopedBackend guard(b);
      InferenceWorkspace ws;  // reused across every batch size below
      for (std::size_t rows : kRows) {
        SCOPED_TRACE(::testing::Message() << kernels::to_string(b) << " in=" << net->input_dim()
                                          << " rows=" << rows);
        Matrix x(rows, net->input_dim());
        std::copy_n(big.flat().begin(), x.size(), x.flat().begin());
        const Matrix ref = layer_by_layer(*net, x, kernels::active());
        for (std::size_t threads : {1, 4}) {
          set_num_threads(threads);
          const Matrix& y = net->predict_into(x, ws);
          ASSERT_EQ(y.rows(), rows);
          ASSERT_EQ(y.cols(), net->output_dim());
          EXPECT_EQ(first_mismatch(y, ref), -1) << "threads=" << threads;
        }
      }
    }
  }
}

TEST(NetworkChunkMajor, UnpreparedNetworkRunsUnfusedFallback) {
  // Without packed weights every layer runs the training forward's kernel
  // over the unpacked weights: bitwise gemm + bias + activation on the
  // whole batch, the path evaluate() relies on. Even and odd layer counts
  // both end in the returned matrix.
  Network even(3, Network::paper_architecture(), 47);
  Network odd(3, Network::paper_architecture(2), 53);
  for (const Network* net : {&even, &odd}) {
    SCOPED_TRACE(::testing::Message() << net->num_layers() << " layers");
    Rng rng(9);
    const Matrix x = make_inputs(61, 3, rng);
    Matrix cur = x;
    for (std::size_t i = 0; i < net->num_layers(); ++i) {
      const DenseLayer& l = net->layer(i);
      Matrix z;
      gemm(cur, l.weights(), z);
      for (std::size_t r = 0; r < z.rows(); ++r) {
        for (std::size_t c = 0; c < z.cols(); ++c) z(r, c) += l.bias()[c];
      }
      activate(l.activation(), z.flat(), z.flat());
      cur = std::move(z);
    }
    ASSERT_FALSE(net->inference_prepared());
    InferenceWorkspace ws;
    const Matrix& y = net->predict_into(x, ws);
    ASSERT_EQ(y.rows(), 61u);
    ASSERT_EQ(y.cols(), 1u);
    EXPECT_EQ(first_mismatch(y, cur), -1);
  }
}

TEST(Network, PredictRejectsInputWidthMismatch) {
  Network net(3, Network::paper_architecture(), 5);
  net.prepare_inference();
  EXPECT_THROW(net.predict(Matrix(4, 2)), InvalidArgument);
}

TEST(Network, EmptyNetworkGuards) {
  Network net;
  EXPECT_THROW(net.input_dim(), InvalidArgument);
  EXPECT_THROW(net.predict(Matrix(1, 1)), InvalidArgument);
}

}  // namespace
}  // namespace gpufreq::nn
