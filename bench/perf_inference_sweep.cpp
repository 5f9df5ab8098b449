// End-to-end microbench of the online inference path: one full
// 61-configuration DVFS sweep (power + time models) per iteration, per
// kernel backend, plus network-level forward passes that
// isolate where the time goes. tools/run_benchmarks.sh merges this into
// BENCH_perf.json.
//
// Benchmark arguments follow the shared axis in backend_axis.hpp: arg0 is
// the kernel backend (0 = scalar, 1 = avx2, 2 = avx512); rows whose
// backend this machine lacks are skipped, and every row carries a
// `backend` counter.
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

// Paper models, so every backend row sweeps the same trained weights.
const core::PowerTimeModels& sweep_models() {
  static const core::PowerTimeModels models = bench::paper_models();
  return models;
}

nn::Matrix random_batch(std::size_t rows, std::size_t cols) {
  Rng rng(7);
  nn::Matrix x(rows, cols);
  for (float& v : x.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return x;
}

// Forward pass of the paper architecture (3 -> 64 SELU x3 -> 1 linear)
// over a `rows`-row batch; second argument: 0 = unfused fallback, 1 = fused
// over packed weights.
void network_forward(benchmark::State& state, std::size_t rows) {
  if (!bench::select_backend(state)) return;
  nn::Network net(3, nn::Network::paper_architecture(), /*seed=*/123);
  const bool fused = state.range(1) != 0;
  if (fused) net.prepare_inference();
  const nn::Matrix x = random_batch(rows, 3);
  nn::InferenceWorkspace ws;
  for (auto _ : state) {
    const nn::Matrix& y = net.predict_into(x, ws);
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
    ->ArgPair(0, 0)->ArgPair(0, 1)
    ->ArgPair(1, 0)->ArgPair(1, 1)
    ->ArgPair(2, 0)->ArgPair(2, 1)
    ->Unit(benchmark::kMicrosecond);

// The capacity-drain shape: a full 128-item drain of 61-row sweeps run as
// one 7808-row batch, where each layer's rows x 64 output no longer fits
// in L2.
void BM_NetworkForwardDrain(benchmark::State& state) {
  network_forward(state, kDrainItems * kSweepRows);
}
BENCHMARK(BM_NetworkForwardDrain)
    ->ArgPair(0, 0)->ArgPair(0, 1)
    ->ArgPair(1, 0)->ArgPair(1, 1)
    ->ArgPair(2, 0)->ArgPair(2, 1)
    ->Unit(benchmark::kMicrosecond);

// The full online sweep through the allocation-free entry point: feature
// replication + both models + clamps, reusing one workspace: the 61-config
// sweep latency.
void BM_SweepPredict(benchmark::State& state) {
  if (!bench::select_backend(state)) return;
  static sim::GpuDevice gpu = bench::make_ga100();
  const core::OnlinePredictor predictor(sweep_models());

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
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

// Same sweep through the legacy DvfsProfile-returning wrapper (what the
// seed benchmarked as BM_PredictFullDvfsSpace), for the before/after
// comparison in BENCH_perf.json. The wrapper allocates its result, so it
// is not the path serving uses.
void BM_SweepPredictLegacy(benchmark::State& state) {
  if (!bench::select_backend(state)) return;
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
    ->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
