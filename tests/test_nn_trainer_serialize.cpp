#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "gpufreq/core/models.hpp"
#include "gpufreq/nn/kernels/dispatch.hpp"
#include "gpufreq/nn/scaler.hpp"
#include "gpufreq/nn/serialize.hpp"
#include "gpufreq/nn/trainer.hpp"
#include "gpufreq/serve/load_generator.hpp"
#include "gpufreq/serve/sweep_service.hpp"
#include "gpufreq/sim/gpu_spec.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/util/thread_pool.hpp"

namespace gpufreq::nn {
namespace {

std::pair<Matrix, Matrix> synth_regression(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 2), y(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<float>(rng.uniform(-1.0, 1.0));
    x(i, 1) = static_cast<float>(rng.uniform(-1.0, 1.0));
    y(i, 0) = 2.0f * x(i, 0) - x(i, 1) + 0.3f * x(i, 0) * x(i, 1);
  }
  return {x, y};
}

// ------------------------------ Scaler ----------------------------------

TEST(Scaler, StandardizesColumns) {
  auto [x, y] = synth_regression(500, 1);
  (void)y;
  for (std::size_t i = 0; i < x.rows(); ++i) x(i, 1) = x(i, 1) * 100.0f + 40.0f;
  StandardScaler s;
  s.fit(x);
  const Matrix z = s.transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t i = 0; i < z.rows(); ++i) mean += static_cast<double>(z(i, c));
    mean /= static_cast<double>(z.rows());
    for (std::size_t i = 0; i < z.rows(); ++i) {
      const double d = static_cast<double>(z(i, c)) - mean;
      var += d * d;
    }
    var /= static_cast<double>(z.rows());
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(Scaler, InverseTransformRoundTrips) {
  auto [x, y] = synth_regression(64, 2);
  (void)y;
  StandardScaler s;
  s.fit(x);
  const Matrix back = s.inverse_transform(s.transform(x));
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_NEAR(back(i, 0), x(i, 0), 1e-4f);
    EXPECT_NEAR(back(i, 1), x(i, 1), 1e-4f);
  }
}

TEST(Scaler, ConstantColumnGetsUnitScale) {
  Matrix x(4, 1, 3.0f);
  StandardScaler s;
  s.fit(x);
  const Matrix z = s.transform(x);
  EXPECT_FLOAT_EQ(z(0, 0), 0.0f);
  EXPECT_DOUBLE_EQ(s.stddevs()[0], 1.0);
}

TEST(Scaler, GuardsAgainstMisuse) {
  StandardScaler s;
  EXPECT_THROW(s.transform(Matrix(1, 1)), InvalidArgument);
  EXPECT_THROW(s.fit(Matrix(0, 3)), InvalidArgument);
  s.fit(Matrix(2, 2, 1.0f));
  EXPECT_THROW(s.transform(Matrix(1, 3)), InvalidArgument);
  EXPECT_THROW(s.restore({1.0}, {0.0}), InvalidArgument);
  EXPECT_THROW(s.restore({}, {}), InvalidArgument);
}

// ------------------------------ Trainer ---------------------------------

TEST(Trainer, ConfigValidation) {
  TrainConfig c;
  c.epochs = 0;
  EXPECT_THROW(Trainer{c}, InvalidArgument);
  c = TrainConfig{};
  c.batch_size = 0;
  EXPECT_THROW(Trainer{c}, InvalidArgument);
  c = TrainConfig{};
  c.validation_split = 1.0;
  EXPECT_THROW(Trainer{c}, InvalidArgument);
}

TEST(Trainer, HistoryHasOneEntryPerEpoch) {
  auto [x, y] = synth_regression(200, 3);
  Network net(2, {{16, Activation::kSelu}, {1, Activation::kLinear}}, 5);
  TrainConfig c;
  c.epochs = 12;
  c.batch_size = 32;
  const TrainHistory h = Trainer(c).fit(net, x, y);
  EXPECT_EQ(h.train_loss.size(), 12u);
  EXPECT_EQ(h.val_loss.size(), 12u);
  EXPECT_EQ(h.epochs_run, 12u);
  EXPECT_GT(h.wall_seconds, 0.0);
}

TEST(Trainer, LossDecreasesSubstantially) {
  auto [x, y] = synth_regression(600, 4);
  Network net(2, {{24, Activation::kSelu}, {24, Activation::kSelu}, {1, Activation::kLinear}},
              5);
  TrainConfig c;
  c.epochs = 40;
  const TrainHistory h = Trainer(c).fit(net, x, y);
  EXPECT_LT(h.final_train_loss(), 0.15 * h.train_loss.front());
  EXPECT_LT(h.final_val_loss(), 0.3 * h.val_loss.front());
}

TEST(Trainer, DeterministicGivenSeeds) {
  auto [x, y] = synth_regression(200, 5);
  Network a(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 5);
  Network b(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 5);
  TrainConfig c;
  c.epochs = 5;
  const TrainHistory ha = Trainer(c).fit(a, x, y);
  const TrainHistory hb = Trainer(c).fit(b, x, y);
  ASSERT_EQ(ha.train_loss.size(), hb.train_loss.size());
  for (std::size_t i = 0; i < ha.train_loss.size(); ++i) {
    EXPECT_DOUBLE_EQ(ha.train_loss[i], hb.train_loss[i]);
  }
}

// The paper architecture (3 x 64 SELU + linear) trained for a few epochs
// must come out bitwise identical at every pool size on every backend:
// each GEMM band, the weight gradient's included, owns its outputs and
// accumulates them in a fixed order whatever the partition.
TEST(Trainer, PaperArchitectureWeightsIndependentOfPoolSize) {
  Rng rng(31);
  Matrix x(500, 3), y(500, 1);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = static_cast<float>(rng.uniform(-1.5, 1.5));
    y(i, 0) = std::sin(x(i, 0)) + 0.5f * x(i, 1) * x(i, 2);
  }
  TrainConfig c;
  c.epochs = 3;
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::avx2_available()) backends.push_back(kernels::Backend::kAvx2);
  if (kernels::avx512_available()) backends.push_back(kernels::Backend::kAvx512);
  for (kernels::Backend backend : backends) {
    SCOPED_TRACE(kernels::to_string(backend));
    kernels::set_kernel_backend(backend);
    std::vector<Network> trained;
    for (std::size_t threads : {1, 4}) {
      set_num_threads(threads);
      Network net(3, Network::paper_architecture(), 11);
      Trainer(c).fit(net, x, y);
      trained.push_back(std::move(net));
    }
    set_num_threads(0);
    kernels::set_kernel_backend(kernels::Backend::kAuto);
    const Network& a = trained[0];
    const Network& b = trained[1];
    ASSERT_EQ(a.num_layers(), b.num_layers());
    for (std::size_t l = 0; l < a.num_layers(); ++l) {
      SCOPED_TRACE(::testing::Message() << "layer " << l);
      const auto wa = a.layer(l).weights().flat(), wb = b.layer(l).weights().flat();
      ASSERT_EQ(wa.size(), wb.size());
      for (std::size_t i = 0; i < wa.size(); ++i) EXPECT_EQ(wa[i], wb[i]) << "weight " << i;
      EXPECT_EQ(a.layer(l).bias(), b.layer(l).bias());
    }
  }
}

TEST(Trainer, FourThreadsTrainThePaperPowerModelWithinOneAndAHalfTimesOneThread) {
  // Same-run ratio, no absolute wall clock: the paper power model's
  // training (3 x 64 SELU, batch 64, RMSprop, 20 % validation) on as many
  // rows as its calibration dataset, 5 epochs, alternating 1 and 4
  // threads three times each. Training steps run on the calling thread, so
  // a larger pool must not slow them down; splitting batch-64 steps
  // across 4 threads made them 2.5x slower.
  Rng rng(37);
  Matrix x(15372, 3), y(15372, 1);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = static_cast<float>(rng.uniform(-1.5, 1.5));
    y(i, 0) = std::sin(x(i, 0)) + 0.5f * x(i, 1) * x(i, 2);
  }
  TrainConfig c;
  c.epochs = 5;
  double best[2] = {std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::infinity()};
  for (int rep = 0; rep < 3; ++rep) {
    for (int side = 0; side < 2; ++side) {
      set_num_threads(side == 0 ? 1 : 4);
      Network net(3, Network::paper_architecture(), 41);
      const auto t0 = std::chrono::steady_clock::now();
      Trainer(c).fit(net, x, y);
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      best[side] = std::min(best[side], s);
    }
  }
  set_num_threads(0);
  EXPECT_LE(best[1], 1.5 * best[0]) << "1 thread: " << best[0] << " s, 4 threads: " << best[1]
                                    << " s (fastest of 3 each)";
}

TEST(Trainer, EarlyStoppingStopsBeforeEpochBudget) {
  auto [x, y] = synth_regression(100, 6);
  Network net(2, {{4, Activation::kTanh}, {1, Activation::kLinear}}, 5);
  TrainConfig c;
  c.epochs = 500;
  c.early_stop_patience = 3;
  const TrainHistory h = Trainer(c).fit(net, x, y);
  EXPECT_LT(h.epochs_run, 500u);
}

TEST(Trainer, ZeroValidationSplitUsesTrainLoss) {
  auto [x, y] = synth_regression(64, 7);
  Network net(2, {{4, Activation::kTanh}, {1, Activation::kLinear}}, 5);
  TrainConfig c;
  c.epochs = 3;
  c.validation_split = 0.0;
  const TrainHistory h = Trainer(c).fit(net, x, y);
  EXPECT_EQ(h.val_loss.size(), 3u);
}

TEST(Trainer, RejectsShapeMismatches) {
  Network net(2, {{4, Activation::kTanh}, {1, Activation::kLinear}}, 5);
  const Trainer t;
  Matrix x(10, 3), y(10, 1);
  EXPECT_THROW(t.fit(net, x, y), InvalidArgument);
  Matrix x2(10, 2), y2(9, 1);
  EXPECT_THROW(t.fit(net, x2, y2), InvalidArgument);
}

// ----------------------------- Serialize --------------------------------

ModelBundle make_bundle() {
  auto [x, y] = synth_regression(128, 8);
  ModelBundle b;
  b.network = Network(2, {{8, Activation::kSelu}, {1, Activation::kLinear}}, 5);
  b.input_scaler.fit(x);
  b.target_scaler.fit(y);
  TrainConfig c;
  c.epochs = 5;
  Trainer(c).fit(b.network, b.input_scaler.transform(x), y);
  return b;
}

ModelBundle round_trip(const ModelBundle& b) {
  std::stringstream ss;
  save_model(b, ss);
  return load_model(ss);
}

std::vector<kernels::Backend> available_backends() {
  std::vector<kernels::Backend> backends = {kernels::Backend::kScalar};
  if (kernels::avx2_available()) backends.push_back(kernels::Backend::kAvx2);
  if (kernels::avx512_available()) backends.push_back(kernels::Backend::kAvx512);
  return backends;
}

// Bits of every curve a fresh SweepService publishes for `catalog` served
// from `models` under the active kernel backend.
std::vector<std::uint64_t> served_curve_bits(
    const std::shared_ptr<const core::PowerTimeModels>& models, const sim::GpuSpec& spec,
    const std::vector<serve::CatalogEntry>& catalog) {
  const serve::ModelSnapshotHolder holder(models);
  serve::SweepService service(holder, spec);
  std::vector<serve::SweepTicket> tickets;
  for (const serve::CatalogEntry& app : catalog) {
    serve::SweepRequest r;
    r.counters = app.counters;
    r.measured_time_at_max_s = app.measured_time_at_max_s;
    tickets.push_back(service.submit(std::move(r)));
  }
  service.drain_once();
  std::vector<std::uint64_t> out;
  for (const serve::SweepTicket& t : tickets) {
    const serve::SweepOutcome& o = t.wait();
    for (const std::vector<double>* curve : {&o.frequencies, &o.power_w, &o.time_s, &o.energy_j})
      for (double v : *curve) out.push_back(std::bit_cast<std::uint64_t>(v));
  }
  return out;
}

TEST(Serialize, RoundTripPreservesPredictions) {
  // A reloaded model is the model that was saved: on every backend it
  // predicts the trained network's bits, and a service serving a reloaded
  // paper-shaped power/time pair publishes the original pair's curves.
  const ModelBundle b = make_bundle();
  const ModelBundle back = round_trip(b);
  EXPECT_EQ(back.target_scaler.means(), b.target_scaler.means());

  const auto saved = serve::fabricate_models(42);
  auto reloaded = std::make_shared<core::PowerTimeModels>();
  reloaded->features = saved->features;
  reloaded->power.restore(round_trip(saved->power.bundle()), core::Target::kPower);
  reloaded->time.restore(round_trip(saved->time.bundle()), core::Target::kTime);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const auto catalog = serve::make_catalog(6, spec, 7);

  auto [x, y] = synth_regression(61, 9);
  (void)y;
  for (kernels::Backend backend : available_backends()) {
    SCOPED_TRACE(kernels::to_string(backend));
    kernels::set_kernel_backend(backend);
    const Matrix p1 = b.network.predict(b.input_scaler.transform(x));
    const Matrix p2 = back.network.predict(back.input_scaler.transform(x));
    ASSERT_EQ(p1.rows(), p2.rows());
    for (std::size_t i = 0; i < p1.rows(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(p1(i, 0)), std::bit_cast<std::uint32_t>(p2(i, 0)))
          << "row " << i;
    }
    const std::vector<std::uint64_t> want = served_curve_bits(saved, spec, catalog);
    ASSERT_EQ(want.size(), catalog.size() * 4 * spec.used_frequencies().size());
    EXPECT_EQ(served_curve_bits(reloaded, spec, catalog), want);
  }
  kernels::set_kernel_backend(kernels::Backend::kAuto);
}

TEST(Serialize, RoundTripThroughFile) {
  const ModelBundle b = make_bundle();
  const std::string path = ::testing::TempDir() + "/gpufreq_model_test.bin";
  save_model(b, path);
  const ModelBundle back = load_model(path);
  EXPECT_EQ(back.network.parameter_count(), b.network.parameter_count());
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss("this is not a model");
  EXPECT_THROW(load_model(ss), ParseError);
}

TEST(Serialize, RejectsTruncatedStream) {
  const ModelBundle b = make_bundle();
  std::stringstream ss;
  save_model(b, ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_model(cut), ParseError);
}

TEST(Serialize, MissingFileThrowsIoError) {
  EXPECT_THROW(load_model("/nonexistent/model.bin"), IoError);
}

TEST(Serialize, RejectsNonFiniteWeightPayload) {
  ModelBundle b = make_bundle();
  b.network.layer(0).weights()(0, 0) = std::numeric_limits<float>::quiet_NaN();
  std::stringstream ss;
  save_model(b, ss);
  EXPECT_THROW(load_model(ss), ParseError);
}

TEST(Serialize, RejectsInfiniteBiasPayload) {
  ModelBundle b = make_bundle();
  b.network.layer(1).bias()[0] = std::numeric_limits<float>::infinity();
  std::stringstream ss;
  save_model(b, ss);
  EXPECT_THROW(load_model(ss), ParseError);
}

}  // namespace
}  // namespace gpufreq::nn
