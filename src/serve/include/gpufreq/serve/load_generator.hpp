#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpufreq/core/models.hpp"
#include "gpufreq/serve/sweep_service.hpp"
#include "gpufreq/sim/gpu_spec.hpp"

namespace gpufreq::serve {

/// One synthetic application: a plausible max-frequency counter snapshot
/// plus the measured wall time, i.e. exactly what the online phase hands
/// the predictor.
struct CatalogEntry {
  std::string name;
  sim::CounterSet counters;
  double measured_time_at_max_s = 0.0;
};

/// Deterministic synthetic application catalog: `n` entries derived only
/// from `seed` and the GPU spec, so every run (and every simulated fleet
/// node) sees bit-identical applications. Two requests for the same entry
/// therefore coalesce in the service.
std::vector<CatalogEntry> make_catalog(std::size_t n, const sim::GpuSpec& spec,
                                       std::uint64_t seed);

/// Fabricate a trained PowerTimeModels pair without running the trainer:
/// paper-architecture networks with seeded random weights, scalers fitted
/// on synthetic data. The predictions are meaningless, but the compute
/// shape, determinism, and bitwise-parity properties are identical to real
/// models — which is what the serve tests, benches, and the load-generator
/// smoke lane need, at millisecond instead of minute startup cost.
std::shared_ptr<const core::PowerTimeModels> fabricate_models(
    std::uint64_t seed, const core::FeatureConfig& features = {});

/// Shape of the synthetic open-loop load.
struct LoadSpec {
  double rate_hz = 2000.0;       ///< arrival rate (open loop: never adapts)
  double duration_s = 1.0;       ///< submission window
  std::size_t catalog_size = 27; ///< distinct applications arrivals draw from
  double interactive_frac = 0.3; ///< share of interactive arrivals
  double system_frac = 0.1;      ///< share of system arrivals (rest: batch)
  /// Catalog skew: 0 draws applications uniformly (every entry equally
  /// likely); s > 0 draws from a Zipf(s) distribution over catalog rank
  /// (entry 0 most popular, P(rank r) proportional to 1/(r+1)^s). Real
  /// fleets re-query a small hot set every control interval — s in
  /// [0.9, 1.2] reproduces that repeat-heavy regime and is what makes the
  /// sweep-curve cache win measurable end to end.
  double zipf_s = 0.0;
  std::uint64_t seed = 0x10ADu;  ///< arrival-process seed
};

/// Per-category completion latencies.
struct BandLoadStats {
  std::string band;  ///< "system" / "interactive" / "batch"
  std::size_t completed = 0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double p999_latency_ms = 0.0;  ///< tail beyond p99 (cache-miss spikes live here)
};

struct LoadReport {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  double wall_s = 0.0;            ///< submission start -> last completion
  double throughput_rps = 0.0;    ///< completed / wall_s
  std::vector<BandLoadStats> bands;
  ServiceStats service;           ///< service counters after the run
};

/// Open-loop load generator: submits Poisson arrivals at spec.rate_hz for
/// spec.duration_s against a *running* service (start() it first),
/// ignoring completions while submitting — queueing delay is measured, not
/// masked. Applications are drawn from a make_catalog() catalog, uniformly
/// or Zipf-skewed (spec.zipf_s); categories follow the configured mix with
/// a uniform band within the category. Blocks until every request
/// completes, then reports per-band p50/p99/p99.9 latency and aggregate
/// throughput.
LoadReport run_open_loop(SweepService& service, const LoadSpec& spec);

}  // namespace gpufreq::serve
