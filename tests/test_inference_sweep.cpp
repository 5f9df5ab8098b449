// Tests of the allocation-free inference path: the *_into entry points
// must produce bitwise-identical results to their allocating wrappers, and
// a warmed-up OnlinePredictor::predict_sweep must make zero heap
// allocations in steady state — verified with a counting global operator
// new, which is exactly the instrument the ISSUE's acceptance criterion
// names. The replacement forwards to std::malloc, so every other test in
// this binary runs unchanged.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/workloads/registry.hpp"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocation_count{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace gpufreq::core {
namespace {

nn::Matrix random_features(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  nn::Matrix x(rows, 3);
  for (std::size_t i = 0; i < rows; ++i) {
    x(i, 0) = static_cast<float>(rng.uniform(0.0, 1.0));   // fp_active
    x(i, 1) = static_cast<float>(rng.uniform(0.0, 1.0));   // dram_active
    x(i, 2) = static_cast<float>(rng.uniform(0.5, 1.4));   // clock (GHz)
  }
  return x;
}

// A structurally-valid DnnModel without the training cost: untrained
// paper-architecture weights plus scalers fitted on plausible data, wired
// in through the same restore() path the model cache uses.
DnnModel make_model(Target target, std::uint64_t seed) {
  nn::ModelBundle bundle;
  bundle.network = nn::Network(3, nn::Network::paper_architecture(), seed);
  bundle.input_scaler.fit(random_features(64, seed + 1));
  Rng rng(seed + 2);
  nn::Matrix y(64, 1);
  for (float& v : y.flat()) v = static_cast<float>(rng.uniform(0.2, 2.0));
  bundle.target_scaler.fit(y);
  DnnModel model;
  model.restore(std::move(bundle), target);
  return model;
}

PowerTimeModels make_models() {
  PowerTimeModels models;
  models.power = make_model(Target::kPower, 101);
  models.time = make_model(Target::kTime, 202);
  return models;
}

TEST(InferenceSweep, NetworkPredictIntoMatchesPredict) {
  nn::Network net(3, nn::Network::paper_architecture(), 77);
  const nn::Matrix x = random_features(61, 5);
  const nn::Matrix y = net.predict(x);
  nn::InferenceWorkspace ws;
  const nn::Matrix& y2 = net.predict_into(x, ws);
  ASSERT_EQ(y2.rows(), y.rows());
  ASSERT_EQ(y2.cols(), y.cols());
  for (std::size_t i = 0; i < y.rows(); ++i) {
    EXPECT_EQ(y(i, 0), y2(i, 0)) << "row " << i;  // bitwise
  }
  // The workspace is reusable: a second call with different data is fine.
  const nn::Matrix x2 = random_features(7, 6);
  const nn::Matrix& y3 = net.predict_into(x2, ws);
  EXPECT_EQ(y3.rows(), 7u);
}

TEST(InferenceSweep, PredictVectorIntoMatchesPredictVector) {
  nn::Network net(3, nn::Network::paper_architecture(), 13);
  const nn::Matrix x = random_features(19, 3);
  const std::vector<double> a = net.predict_vector(x);
  std::vector<double> b(x.rows());
  nn::InferenceWorkspace ws;
  net.predict_vector_into(x, ws, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(InferenceSweep, ModelPredictIntoMatchesPredict) {
  const DnnModel model = make_model(Target::kPower, 55);
  const nn::Matrix x = random_features(23, 8);
  const std::vector<double> a = model.predict(x);
  DnnModel::Workspace ws;
  std::vector<double> b(x.rows());
  model.predict_into(x, ws, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(InferenceSweep, PredictSweepMatchesPredictFromFeatures) {
  const PowerTimeModels models = make_models();
  const OnlinePredictor predictor(models);
  sim::GpuDevice gpu(sim::GpuSpec::ga100());
  sim::RunOptions ro;
  ro.collect_samples = false;
  const sim::RunResult acq = gpu.run(workloads::find("lammps"), ro);
  const auto freqs = gpu.spec().used_frequencies();

  const DvfsProfile p = predictor.predict_from_features(acq.mean_counters, acq.exec_time_s,
                                                        gpu.spec(), freqs, "lammps");
  SweepWorkspace ws;
  predictor.predict_sweep(acq.mean_counters, acq.exec_time_s, gpu.spec(), freqs, ws);
  ASSERT_EQ(p.size(), freqs.size());
  ASSERT_EQ(ws.frequencies.size(), freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_EQ(p.frequency_mhz[i], ws.frequencies[i]) << i;
    EXPECT_EQ(p.power_w[i], ws.power_w[i]) << i;
    EXPECT_EQ(p.time_s[i], ws.time_s[i]) << i;
    EXPECT_EQ(p.energy_j[i], ws.energy_j[i]) << i;
  }
  // Physical sanity on the fabricated models' output path: the clamps
  // guarantee positive power and time, hence positive energy.
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_GT(ws.power_w[i], 0.0);
    EXPECT_GT(ws.time_s[i], 0.0);
    EXPECT_EQ(ws.energy_j[i], ws.power_w[i] * ws.time_s[i]);
  }
}

TEST(InferenceSweep, SteadyStateSweepIsAllocationFree) {
  const PowerTimeModels models = make_models();
  const OnlinePredictor predictor(models);
  sim::GpuDevice gpu(sim::GpuSpec::ga100());
  sim::RunOptions ro;
  ro.collect_samples = false;
  const sim::RunResult acq = gpu.run(workloads::find("lammps"), ro);
  const auto freqs = gpu.spec().used_frequencies();

  SweepWorkspace ws;
  // Warm up: first calls grow the workspace buffers (and spin up the
  // thread pool if not already live).
  for (int i = 0; i < 3; ++i) {
    predictor.predict_sweep(acq.mean_counters, acq.exec_time_s, gpu.spec(), freqs, ws);
  }

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  for (int i = 0; i < 5; ++i) {
    predictor.predict_sweep(acq.mean_counters, acq.exec_time_s, gpu.spec(), freqs, ws);
  }
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "steady-state predict_sweep must not touch the heap";
}

}  // namespace
}  // namespace gpufreq::core
