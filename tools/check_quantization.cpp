// Quantized cache-key accuracy gate, runnable from the command line (CI
// lane and local checks). Trains the paper-shape power/time models on a
// reduced campaign, then checks the sweep-curve cache's quantized-key mode
// (SweepCacheConfig::key_bits): for every registry workload, the cell
// representative and the worst-case cell corners must be EDP-equivalent
// when served the representative's curve (strict argmin, or fp32-EDP
// regret <= --max-edp-regret). Exits 1 when the agreement floor fails.
//
//   --min-edp-agreement <frac> minimum fraction of cell members whose
//                              EDP-optimal selection is EDP-equivalent to
//                              the served curve's (default 0.95)
//   --max-edp-regret <pct>     how close (in fp32-EDP) a differing argmin
//                              must be to count as EDP-equivalent
//                              (default 0.5)
//   --fast                     cheaper training campaign (CI uses this)
//   --key-bits N               keying grid, matching
//                              SweepCacheConfig::key_bits (default 8)
//
// The strict argmin-identity rate is always printed so drift is visible
// even while the gate passes.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/core/sweep_cache.hpp"
#include "gpufreq/util/stats.hpp"
#include "gpufreq/workloads/registry.hpp"

using namespace gpufreq;

namespace {

struct Options {
  double min_edp_agreement = 0.95;
  double max_edp_regret_pct = 0.5;
  bool fast = false;
  unsigned key_bits = 8;
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--min-edp-agreement FRAC] [--max-edp-regret PCT] [--fast] "
               "[--key-bits N]\n",
               argv0);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> double {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return std::atof(argv[++i]);
    };
    if (arg == "--min-edp-agreement") {
      opt.min_edp_agreement = value();
    } else if (arg == "--max-edp-regret") {
      opt.max_edp_regret_pct = value();
    } else if (arg == "--fast") {
      opt.fast = true;
    } else if (arg == "--key-bits") {
      opt.key_bits = static_cast<unsigned>(value());
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (opt.key_bits == 0 || opt.key_bits > 52) {
    std::fprintf(stderr, "--key-bits must be in [1, 52]\n");
    std::exit(2);
  }
  return opt;
}

std::vector<double> coarse_grid(const sim::GpuSpec& spec, double step = 90.0) {
  std::vector<double> freqs;
  for (double f = spec.used_min_mhz; f <= spec.core_max_mhz + 1e-9; f += step) {
    freqs.push_back(spec.nearest_frequency(f));
  }
  if (freqs.back() != spec.core_max_mhz) freqs.push_back(spec.core_max_mhz);
  return freqs;
}

// --------------------------------------------------------------- key study

/// Apply `map` to the bit pattern of every counter field the sweep-curve
/// cache keys on (the same 12 fields SweepCurveCache::lookup hashes).
template <typename Fn>
sim::CounterSet map_keyed_fields(const sim::CounterSet& c, Fn&& map) {
  const auto f = [&](double v) {
    return std::bit_cast<double>(map(std::bit_cast<std::uint64_t>(v)));
  };
  sim::CounterSet out = c;
  out.fp64_active = f(c.fp64_active);
  out.fp32_active = f(c.fp32_active);
  out.sm_app_clock = f(c.sm_app_clock);
  out.dram_active = f(c.dram_active);
  out.gr_engine_active = f(c.gr_engine_active);
  out.gpu_utilization = f(c.gpu_utilization);
  out.power_usage = f(c.power_usage);
  out.sm_active = f(c.sm_active);
  out.sm_occupancy = f(c.sm_occupancy);
  out.pcie_tx_bytes = f(c.pcie_tx_bytes);
  out.pcie_rx_bytes = f(c.pcie_rx_bytes);
  out.exec_time = f(c.exec_time);
  return out;
}

/// Quantized-key equivalence study: under key_bits keying, every request
/// whose counters land in a rounding cell is served the first-seen
/// member's curve. The study gates the worst case — the cell
/// representative (the quantized midpoint) plus the cell's low and high
/// corner members: the frequency the served curve selects must be the
/// member's own argmin, or cost at most max_edp_regret_pct extra in the
/// member's own EDP. Returns true when the agreement floor holds.
bool run_key_study(const core::OnlinePredictor& predictor, sim::GpuDevice& gpu,
                   const std::vector<double>& grid, const Options& opt) {
  using core::SweepCurveCache;
  const unsigned kb = opt.key_bits;
  const std::uint64_t half = 1ull << (52u - kb - 1u);
  const auto quantize = [kb](std::uint64_t b) { return SweepCurveCache::quantize_bits(b, kb); };
  // Cell corners: the extreme bit patterns that still round to the same
  // quantized key (guarded for patterns too close to zero to have a full
  // half-cell below them).
  const auto low_corner = [&](std::uint64_t b) {
    const std::uint64_t q = quantize(b);
    return q >= half && quantize(q - half) == q ? q - half : q;
  };
  const auto high_corner = [&](std::uint64_t b) {
    const std::uint64_t q = quantize(b);
    return quantize(q + half - 1) == q ? q + half - 1 : q;
  };

  core::SweepWorkspace served_ws, member_ws;
  sim::RunOptions ro;
  ro.collect_samples = false;
  std::size_t n_members = 0, strict = 0, agree = 0;
  double worst_regret_pct = 0.0;
  for (const auto& wl : workloads::all()) {
    const sim::RunResult acq = gpu.run(wl, ro);
    const double t_max = acq.exec_time_s;
    const std::uint64_t t_bits = std::bit_cast<std::uint64_t>(t_max);

    // The curve the cache would serve every member of this cell: the
    // representative's sweep (predicting on quantized counters models the
    // first-seen member up to the cell radius, by construction the
    // farthest any member sits from it).
    const sim::CounterSet rep = map_keyed_fields(acq.mean_counters, quantize);
    const double rep_t = std::bit_cast<double>(quantize(t_bits));
    predictor.predict_sweep(rep, rep_t, gpu.spec(), grid, served_ws);
    std::vector<double> edp_served(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
      edp_served[i] = served_ws.energy_j[i] * served_ws.time_s[i];
    const std::size_t pick_served = stats::argmin(edp_served);

    struct Member {
      const char* name;
      sim::CounterSet counters;
      double t;
    };
    const Member members[] = {
        {"exact", acq.mean_counters, t_max},
        {"cell-low", map_keyed_fields(acq.mean_counters, low_corner),
         std::bit_cast<double>(low_corner(t_bits))},
        {"cell-high", map_keyed_fields(acq.mean_counters, high_corner),
         std::bit_cast<double>(high_corner(t_bits))},
    };
    for (const Member& m : members) {
      predictor.predict_sweep(m.counters, m.t, gpu.spec(), grid, member_ws);
      std::vector<double> edp(grid.size());
      for (std::size_t i = 0; i < grid.size(); ++i)
        edp[i] = member_ws.energy_j[i] * member_ws.time_s[i];
      const std::size_t pick_own = stats::argmin(edp);
      const double regret_pct = 100.0 * (edp[pick_served] - edp[pick_own]) / edp[pick_own];
      worst_regret_pct = std::max(worst_regret_pct, regret_pct);
      ++n_members;
      if (pick_own == pick_served) ++strict;
      if (pick_own == pick_served || regret_pct <= opt.max_edp_regret_pct) {
        ++agree;
      } else {
        std::printf("KEY-DISAGREE %-12s %-9s own bin %zu vs served bin %zu "
                    "(fp32-EDP regret %.4f%%)\n",
                    wl.name.c_str(), m.name, pick_own, pick_served, regret_pct);
      }
    }
  }

  const double agreement = static_cast<double>(agree) / static_cast<double>(n_members);
  std::printf("key study (key_bits %u): EDP-equivalent %zu/%zu (%.1f%%, floor %.1f%%) | "
              "strict argmin %zu/%zu | worst fp32-EDP regret %.4f%% (cap %.2f%%)\n",
              opt.key_bits, agree, n_members, 100.0 * agreement,
              100.0 * opt.min_edp_agreement, strict, n_members, worst_regret_pct,
              opt.max_edp_regret_pct);
  if (agreement < opt.min_edp_agreement) {
    std::printf("FAIL: quantized-key EDP agreement %.3f below floor %.3f\n", agreement,
                opt.min_edp_agreement);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  sim::GpuDevice gpu(sim::GpuSpec::ga100());
  core::OfflineConfig cfg;
  cfg.collection.frequencies_mhz = coarse_grid(gpu.spec());
  if (opt.fast) {
    cfg.collection.runs = 2;
    cfg.collection.samples_per_run = 3;
    cfg.power_model.epochs = 60;
    cfg.time_model.epochs = 25;
  }
  const core::PowerTimeModels models =
      core::OfflineTrainer(cfg).train(gpu, workloads::training_set());
  const core::OnlinePredictor predictor(models);
  const bool ok = run_key_study(predictor, gpu, gpu.spec().used_frequencies(), opt);
  std::printf("%s\n", ok ? "quantization gate PASSED" : "quantization gate FAILED");
  return ok ? 0 : 1;
}
