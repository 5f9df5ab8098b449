// End-to-end microbench of the online inference path: one full
// 61-configuration DVFS sweep (power + time models) per iteration, per
// kernel backend and precision, plus network-level forward passes that
// isolate where the time goes. tools/run_benchmarks.sh merges this into
// BENCH_perf.json.
//
// Benchmark arguments follow the shared axes in backend_axis.hpp: arg0 is
// the kernel backend (0 = scalar, 1 = avx2, 2 = avx512), arg1 the
// precision (0 = fp32, 1 = int8); rows whose backend this machine lacks
// are skipped, and every row carries `backend` and `precision` counters.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "backend_axis.hpp"
#include "common.hpp"
#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/nn/network.hpp"
#include "gpufreq/util/rng.hpp"

using namespace gpufreq;

namespace {

constexpr std::size_t kSweepRows = 61;   // GA100 used-frequency count
constexpr std::size_t kDrainItems = 128;  // SweepService default max_batch

// Paper models with both the fp32 and int8 inference packs prepared, so
// every backend x precision row sweeps the same trained weights.
const core::PowerTimeModels& sweep_models() {
  static const core::PowerTimeModels models = [] {
    core::PowerTimeModels m = bench::paper_models();
    m.power.prepare_inference(nn::Precision::kInt8);
    m.time.prepare_inference(nn::Precision::kInt8);
    return m;
  }();
  return models;
}

nn::Matrix random_batch(std::size_t rows, std::size_t cols) {
  Rng rng(7);
  nn::Matrix x(rows, cols);
  for (float& v : x.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return x;
}

// Forward pass of the paper architecture (3 -> 64 SELU x3 -> 1 linear)
// over a `rows`-row batch; third argument: 0 = unfused fallback, 1 = fused
// over packed weights (the int8 path only exists fused, so the unfused
// row is fp32-only).
void network_forward(benchmark::State& state, std::size_t rows) {
  const auto sel = bench::select_axes(state);
  if (!sel) return;
  nn::Network net(3, nn::Network::paper_architecture(), /*seed=*/123);
  const bool fused = state.range(2) != 0;
  if (fused) net.prepare_inference(sel->precision);
  const nn::Matrix x = random_batch(rows, 3);
  nn::InferenceWorkspace ws;
  for (auto _ : state) {
    const nn::Matrix& y = net.predict_into(x, ws, sel->precision);
    benchmark::DoNotOptimize(y.flat().data());
    benchmark::ClobberMemory();
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["fused"] = fused ? 1.0 : 0.0;
  bench::reset_backend();
}

// One 61-row sweep batch.
void BM_NetworkForward(benchmark::State& state) { network_forward(state, kSweepRows); }
BENCHMARK(BM_NetworkForward)
    ->Args({0, 0, 0})->Args({0, 0, 1})->Args({0, 1, 1})
    ->Args({1, 0, 0})->Args({1, 0, 1})->Args({1, 1, 1})
    ->Args({2, 0, 0})->Args({2, 0, 1})->Args({2, 1, 1})
    ->Unit(benchmark::kMicrosecond);

// The capacity-drain shape: a full 128-item drain of 61-row sweeps run as
// one 7808-row batch, where each layer's rows x 64 output no longer fits
// in L2.
void BM_NetworkForwardDrain(benchmark::State& state) {
  network_forward(state, kDrainItems * kSweepRows);
}
BENCHMARK(BM_NetworkForwardDrain)
    ->Args({0, 0, 0})->Args({0, 0, 1})->Args({0, 1, 1})
    ->Args({1, 0, 0})->Args({1, 0, 1})->Args({1, 1, 1})
    ->Args({2, 0, 0})->Args({2, 0, 1})->Args({2, 1, 1})
    ->Unit(benchmark::kMicrosecond);

// The full online sweep through the allocation-free entry point: feature
// replication + both models + clamps, reusing one workspace. This is the
// 61-config sweep latency the int8-vs-fp32 acceptance numbers quote.
void BM_SweepPredict(benchmark::State& state) {
  const auto sel = bench::select_axes(state);
  if (!sel) return;
  static sim::GpuDevice gpu = bench::make_ga100();
  const core::OnlinePredictor predictor(sweep_models(), sel->precision);

  gpu.reset_clocks();
  sim::RunOptions ro;
  ro.collect_samples = false;
  const sim::RunResult acq = gpu.run(workloads::find("lammps"), ro);
  const auto freqs = gpu.spec().used_frequencies();

  core::SweepWorkspace ws;
  for (auto _ : state) {
    predictor.predict_sweep(acq.mean_counters, acq.exec_time_s, gpu.spec(), freqs, ws);
    benchmark::DoNotOptimize(ws.energy_j.data());
    benchmark::ClobberMemory();
  }
  state.counters["configs"] = static_cast<double>(freqs.size());
  bench::reset_backend();
}
BENCHMARK(BM_SweepPredict)
    ->ArgPair(0, 0)->ArgPair(0, 1)
    ->ArgPair(1, 0)->ArgPair(1, 1)
    ->ArgPair(2, 0)->ArgPair(2, 1)
    ->Unit(benchmark::kMicrosecond);

// Same sweep through the legacy DvfsProfile-returning wrapper (what the
// seed benchmarked as BM_PredictFullDvfsSpace), for the before/after
// comparison in BENCH_perf.json. fp32-only: the wrapper predates the
// precision knob and allocates its result, so it is not the path int8
// serving uses.
void BM_SweepPredictLegacy(benchmark::State& state) {
  const auto sel = bench::select_axes(state);
  if (!sel) return;
  static sim::GpuDevice gpu = bench::make_ga100();
  const core::OnlinePredictor predictor(sweep_models());

  gpu.reset_clocks();
  sim::RunOptions ro;
  ro.collect_samples = false;
  const sim::RunResult acq = gpu.run(workloads::find("lammps"), ro);
  const auto freqs = gpu.spec().used_frequencies();

  for (auto _ : state) {
    const core::DvfsProfile p = predictor.predict_from_features(
        acq.mean_counters, acq.exec_time_s, gpu.spec(), freqs, "lammps");
    benchmark::DoNotOptimize(p.energy_j.data());
  }
  state.counters["configs"] = static_cast<double>(freqs.size());
  bench::reset_backend();
}
BENCHMARK(BM_SweepPredictLegacy)
    ->ArgPair(0, 0)->ArgPair(1, 0)->ArgPair(2, 0)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
