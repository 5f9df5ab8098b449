// Bitwise parity of the fused batched sweep: predict_sweep_batch over N
// items (ragged grids included) must reproduce, bit for bit, what N
// independent predict_sweep calls produce. This is the contract that lets
// SweepService fuse concurrent tenants into one GEMM without changing any
// tenant's answer.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/serve/load_generator.hpp"
#include "gpufreq/sim/gpu_spec.hpp"
#include "gpufreq/util/error.hpp"

namespace gpufreq::serve {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct Fixture {
  std::shared_ptr<const core::PowerTimeModels> models = fabricate_models(42);
  sim::GpuSpec spec = sim::GpuSpec::ga100();
  core::OnlinePredictor predictor{*models};
  std::vector<CatalogEntry> catalog = make_catalog(27, spec, 7);
};

/// Per-item grid: a ragged prefix of the used frequencies, submitted in
/// descending order for odd items to prove the batch path sorts exactly
/// like predict_sweep does.
std::vector<std::vector<double>> ragged_grids(const sim::GpuSpec& spec, std::size_t n) {
  const std::vector<double> all = spec.used_frequencies();
  std::vector<std::vector<double>> grids;
  grids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = 1 + (i * 13) % all.size();
    std::vector<double> g(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(len));
    if (i % 2 == 1) std::reverse(g.begin(), g.end());
    grids.push_back(std::move(g));
  }
  return grids;
}

void expect_batch_matches_sequential(std::size_t n) {
  Fixture f;
  const std::vector<std::vector<double>> grids = ragged_grids(f.spec, n);
  std::vector<core::BatchSweepItem> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const CatalogEntry& app = f.catalog[i % f.catalog.size()];
    items.push_back({.counters = &app.counters,
                     .measured_time_at_max_s = app.measured_time_at_max_s,
                     .frequencies = grids[i]});
  }

  core::BatchSweepWorkspace ws;
  f.predictor.predict_sweep_batch(items, f.spec, ws);
  ASSERT_EQ(ws.items(), n);

  core::SweepWorkspace sws;
  for (std::size_t i = 0; i < n; ++i) {
    f.predictor.predict_sweep(*items[i].counters, items[i].measured_time_at_max_s, f.spec,
                              grids[i], sws);
    ASSERT_EQ(ws.rows(i), sws.frequencies.size()) << "item " << i;
    const auto freq = ws.item_frequencies(i);
    const auto power = ws.item_power(i);
    const auto time = ws.item_time(i);
    const auto energy = ws.item_energy(i);
    for (std::size_t r = 0; r < sws.frequencies.size(); ++r) {
      EXPECT_EQ(bits(freq[r]), bits(sws.frequencies[r])) << "item " << i << " row " << r;
      EXPECT_EQ(bits(power[r]), bits(sws.power_w[r])) << "item " << i << " row " << r;
      EXPECT_EQ(bits(time[r]), bits(sws.time_s[r])) << "item " << i << " row " << r;
      EXPECT_EQ(bits(energy[r]), bits(sws.energy_j[r])) << "item " << i << " row " << r;
    }
  }
}

TEST(ServeBatch, SingleItemMatchesSequential) { expect_batch_matches_sequential(1); }
TEST(ServeBatch, TwoItemsMatchSequential) { expect_batch_matches_sequential(2); }
TEST(ServeBatch, SixteenItemsMatchSequential) { expect_batch_matches_sequential(16); }
TEST(ServeBatch, SixtyOneItemsMatchSequential) { expect_batch_matches_sequential(61); }
TEST(ServeBatch, HundredItemsMatchSequential) { expect_batch_matches_sequential(100); }

TEST(ServeBatch, WorkspaceIsReusableAcrossBatchShapes) {
  Fixture f;
  const std::vector<double> grid = f.spec.used_frequencies();
  core::BatchSweepWorkspace ws;
  // Large batch first, then a small one through the same workspace: stale
  // rows from the big batch must not leak into the small batch's results.
  for (const std::size_t n : {std::size_t{40}, std::size_t{3}}) {
    std::vector<core::BatchSweepItem> items;
    for (std::size_t i = 0; i < n; ++i) {
      const CatalogEntry& app = f.catalog[i % f.catalog.size()];
      items.push_back({.counters = &app.counters,
                       .measured_time_at_max_s = app.measured_time_at_max_s,
                       .frequencies = grid});
    }
    f.predictor.predict_sweep_batch(items, f.spec, ws);
    ASSERT_EQ(ws.items(), n);

    core::SweepWorkspace sws;
    for (std::size_t i = 0; i < n; ++i) {
      f.predictor.predict_sweep(*items[i].counters, items[i].measured_time_at_max_s, f.spec,
                                grid, sws);
      const auto energy = ws.item_energy(i);
      for (std::size_t r = 0; r < sws.energy_j.size(); ++r)
        ASSERT_EQ(bits(energy[r]), bits(sws.energy_j[r])) << "n=" << n << " item " << i;
    }
  }
}

TEST(ServeBatch, ValidatesItems) {
  Fixture f;
  core::BatchSweepWorkspace ws;
  const std::vector<double> grid = f.spec.used_frequencies();

  EXPECT_THROW(f.predictor.predict_sweep_batch({}, f.spec, ws), InvalidArgument);

  std::vector<core::BatchSweepItem> null_counters{{.counters = nullptr,
                                                   .measured_time_at_max_s = 1.0,
                                                   .frequencies = grid}};
  EXPECT_THROW(f.predictor.predict_sweep_batch(null_counters, f.spec, ws), InvalidArgument);

  std::vector<core::BatchSweepItem> bad_time{{.counters = &f.catalog[0].counters,
                                              .measured_time_at_max_s = 0.0,
                                              .frequencies = grid}};
  EXPECT_THROW(f.predictor.predict_sweep_batch(bad_time, f.spec, ws), InvalidArgument);

  std::vector<core::BatchSweepItem> no_freqs{{.counters = &f.catalog[0].counters,
                                              .measured_time_at_max_s = 1.0,
                                              .frequencies = {}}};
  EXPECT_THROW(f.predictor.predict_sweep_batch(no_freqs, f.spec, ws), InvalidArgument);
}

}  // namespace
}  // namespace gpufreq::serve
