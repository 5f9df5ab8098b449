#pragma once

// Shared kernel-backend bench axis for the perf binaries
// (perf_inference_sweep, perf_serve): arg0 selects the kernel backend
// (0 = scalar, 1 = avx2, 2 = avx512). Rows whose backend the CPU/binary
// lacks are skipped with an explicit error so the JSON stays comparable
// across hosts, and every row is tagged with a `backend` counter (the
// backend ordinal) so BENCH_perf.json rows are filterable without parsing
// benchmark names.

#include <benchmark/benchmark.h>

#include "gpufreq/nn/kernels/dispatch.hpp"

namespace gpufreq::bench {

/// Switch to the backend arg0 names; false (row skipped) when unavailable.
inline bool select_backend(benchmark::State& state) {
  using nn::kernels::Backend;
  Backend b;
  switch (state.range(0)) {
    case 0: b = Backend::kScalar; break;
    case 1: b = Backend::kAvx2; break;
    case 2: b = Backend::kAvx512; break;
    default: state.SkipWithError("unknown backend arg"); return false;
  }
  if (b == Backend::kAvx2 && !nn::kernels::avx2_available()) {
    state.SkipWithError("avx2 backend unavailable on this machine");
    return false;
  }
  if (b == Backend::kAvx512 && !nn::kernels::avx512_available()) {
    state.SkipWithError("avx512 backend unavailable on this machine");
    return false;
  }
  nn::kernels::set_kernel_backend(b);
  state.SetLabel(nn::kernels::to_string(b));
  state.counters["backend"] = static_cast<double>(state.range(0));
  return true;
}

inline void reset_backend() {
  nn::kernels::set_kernel_backend(nn::kernels::Backend::kAuto);
}

}  // namespace gpufreq::bench
