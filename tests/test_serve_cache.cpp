// Sweep-curve cache behavior, unit level and end to end through the
// service: exact-key hits are bitwise-identical to recomputing, LRU
// eviction and set aliasing under pressure, wholesale invalidation by
// model-epoch keying (including racing a concurrent hot-swap — the TSan
// lane runs this) and by kernel-backend keying, the quantized-key mode
// sharing a rounding cell, the one-key identity (a one-field difference
// never shares a curve, equal bits always do, hit views outlive same-drain
// evictions), and the parallel sharded drain matching the serial drain
// bitwise.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/core/sweep_cache.hpp"
#include "gpufreq/nn/kernels/dispatch.hpp"
#include "gpufreq/serve/load_generator.hpp"
#include "gpufreq/serve/sweep_service.hpp"
#include "gpufreq/sim/gpu_spec.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/stats.hpp"
#include "gpufreq/util/thread_pool.hpp"

namespace gpufreq::serve {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct Fixture {
  std::shared_ptr<const core::PowerTimeModels> models = fabricate_models(42);
  sim::GpuSpec spec = sim::GpuSpec::ga100();
  ModelSnapshotHolder holder{models};
  std::vector<CatalogEntry> catalog = make_catalog(8, spec, 7);

  SweepRequest request(std::size_t app, WorkloadCategory category = WorkloadCategory::kBatch,
                       int band = 0) const {
    SweepRequest r;
    r.descriptor = {.category = category, .band = band};
    r.counters = catalog[app].counters;
    r.measured_time_at_max_s = catalog[app].measured_time_at_max_s;
    return r;
  }
};

void expect_curves_bitwise_equal(const SweepOutcome& out, const core::SweepWorkspace& ws) {
  ASSERT_EQ(out.frequencies.size(), ws.frequencies.size());
  for (std::size_t r = 0; r < ws.frequencies.size(); ++r) {
    EXPECT_EQ(bits(out.frequencies[r]), bits(ws.frequencies[r])) << "row " << r;
    EXPECT_EQ(bits(out.power_w[r]), bits(ws.power_w[r])) << "row " << r;
    EXPECT_EQ(bits(out.time_s[r]), bits(ws.time_s[r])) << "row " << r;
    EXPECT_EQ(bits(out.energy_j[r]), bits(ws.energy_j[r])) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// SweepCurveCache unit level
// ---------------------------------------------------------------------------

TEST(SweepCache, QuantizeBitsGridProperties) {
  using core::SweepCurveCache;
  const std::uint64_t one = bits(1.0);

  // key_bits 0 (exact mode) and >= 52 are the identity.
  EXPECT_EQ(SweepCurveCache::quantize_bits(0x3ff123456789abcdull, 0), 0x3ff123456789abcdull);
  EXPECT_EQ(SweepCurveCache::quantize_bits(0x3ff123456789abcdull, 52), 0x3ff123456789abcdull);
  EXPECT_EQ(SweepCurveCache::quantize_bits(0x3ff123456789abcdull, 60), 0x3ff123456789abcdull);

  // Values already on the 2^-8 relative grid are fixed points.
  EXPECT_EQ(SweepCurveCache::quantize_bits(one, 8), one);

  // Round-to-nearest in the dropped mantissa bits: just-below-half rounds
  // down, half-and-above rounds up one cell (shift = 52 - 8 = 44).
  const std::uint64_t half = 1ull << 43;
  const std::uint64_t cell = 1ull << 44;
  EXPECT_EQ(SweepCurveCache::quantize_bits(one | (half - 1), 8), one);
  EXPECT_EQ(SweepCurveCache::quantize_bits(one | half, 8), one + cell);

  // The carry propagates into the exponent: the all-ones mantissa just
  // below 2.0 rounds up to exactly 2.0.
  EXPECT_EQ(SweepCurveCache::quantize_bits(bits(2.0) - 1, 8), bits(2.0));

  // Idempotent: a quantized pattern is its own quantization.
  const std::uint64_t q = SweepCurveCache::quantize_bits(bits(0.3141592653589793), 8);
  EXPECT_EQ(SweepCurveCache::quantize_bits(q, 8), q);
}

TEST(SweepCache, DisabledCacheAndOversizeGridsBypass) {
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const auto catalog = make_catalog(1, spec, 7);
  const std::vector<double> grid = {500.0, 700.0, 900.0, 1100.0, 1300.0};

  core::SweepCacheConfig off;
  off.sets = 0;
  core::SweepCurveCache disabled(off);
  EXPECT_FALSE(disabled.enabled());
  core::SweepCurveCache::Probe probe;
  EXPECT_FALSE(disabled.lookup(catalog[0].counters, 1.0, grid, 0, 0, probe).hit);
  EXPECT_FALSE(probe.cacheable);
  disabled.insert(probe, grid, grid, grid, grid, grid);  // must be a no-op
  EXPECT_EQ(disabled.stats().misses, 1u);
  EXPECT_EQ(disabled.stats().hits, 0u);

  core::SweepCacheConfig tiny;
  tiny.sets = 2;
  tiny.ways = 2;
  tiny.max_rows = 4;  // the 5-point grid above no longer fits
  core::SweepCurveCache cache(tiny);
  EXPECT_TRUE(cache.enabled());
  EXPECT_FALSE(cache.lookup(catalog[0].counters, 1.0, grid, 0, 0, probe).hit);
  EXPECT_FALSE(probe.cacheable) << "grids longer than max_rows must bypass";
  cache.insert(probe, grid, grid, grid, grid, grid);
  EXPECT_FALSE(cache.lookup(catalog[0].counters, 1.0, grid, 0, 0, probe).hit)
      << "a bypassed probe must never have been inserted";
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SweepCache, RoundTripLruEvictionAndAliasing) {
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const auto catalog = make_catalog(3, spec, 7);
  const std::vector<double> grid = {500.0, 900.0};
  // Curves are just distinct recognizable payloads here; the service-level
  // tests pin real predictor output.
  const std::vector<double> p0 = {10.0, 11.0}, t0 = {1.0, 0.5}, e0 = {10.0, 5.5};
  const std::vector<double> p1 = {20.0, 21.0}, t1 = {2.0, 1.5}, e1 = {40.0, 31.5};
  const std::vector<double> p2 = {30.0, 31.0}, t2 = {3.0, 2.5}, e2 = {90.0, 77.5};

  core::SweepCacheConfig config;
  config.sets = 1;  // every key aliases into one set
  config.ways = 2;
  config.max_rows = 8;
  core::SweepCurveCache cache(config);
  ASSERT_EQ(cache.capacity(), 2u);

  core::SweepCurveCache::Probe probe;
  const auto probe_app = [&](std::size_t app) {
    return cache.lookup(catalog[app].counters, catalog[app].measured_time_at_max_s, grid,
                        /*epoch=*/0, /*context=*/0, probe);
  };

  EXPECT_FALSE(probe_app(0).hit);
  ASSERT_TRUE(probe.cacheable);
  cache.insert(probe, grid, grid, p0, t0, e0);
  const core::SweepCurveCache::LookupResult hit0 = probe_app(0);
  ASSERT_TRUE(hit0.hit);
  ASSERT_EQ(hit0.energy_j.size(), 2u);
  EXPECT_EQ(bits(hit0.power_w[0]), bits(10.0));
  EXPECT_EQ(bits(hit0.energy_j[1]), bits(5.5));

  EXPECT_FALSE(probe_app(1).hit);
  cache.insert(probe, grid, grid, p1, t1, e1);
  EXPECT_TRUE(probe_app(1).hit);
  EXPECT_EQ(cache.stats().evictions, 0u) << "filling empty ways is not an eviction";

  // Set is now full; inserting app 2 evicts the LRU way. App 0 was last
  // touched before app 1's insert and re-probe, so app 0 is the victim.
  EXPECT_FALSE(probe_app(2).hit);
  cache.insert(probe, grid, grid, p2, t2, e2);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(probe_app(2).hit);
  EXPECT_TRUE(probe_app(1).hit);
  EXPECT_FALSE(probe_app(0).hit) << "the LRU entry must have been evicted";

  // A different epoch under the same counters must not alias onto the
  // epoch-0 entries even within the same set.
  core::SweepCurveCache::Probe other_epoch;
  EXPECT_FALSE(cache
                   .lookup(catalog[1].counters, catalog[1].measured_time_at_max_s, grid,
                           /*epoch=*/1, /*context=*/0, other_epoch)
                   .hit);

  cache.clear();
  EXPECT_FALSE(probe_app(1).hit);
}

TEST(SweepCache, FreshCacheNeverHits) {
  // A new cache leaves its slab unwritten; only the entries' valid flags
  // stand between a probe and that memory. Every probe misses until the
  // first insert, including an all-zero counter set at epoch 0 and
  // context 0, the key a zero-filled entry would hold.
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const auto catalog = make_catalog(4, spec, 7);
  const std::vector<double> grid = {500.0, 700.0, 900.0};
  const sim::CounterSet zeros{};
  core::SweepCurveCache cache;  // default shape: rows up to 96
  ASSERT_GT(cache.max_rows(), grid.size());
  core::SweepCurveCache::Probe probe;
  EXPECT_FALSE(cache.lookup(zeros, 0.0, grid, 0, 0, probe).hit);
  ASSERT_TRUE(probe.cacheable);
  EXPECT_FALSE(cache.lookup(zeros, 0.0, std::vector<double>{0.0}, 0, 0, probe).hit);
  for (const CatalogEntry& app : catalog) {
    EXPECT_FALSE(cache.lookup(app.counters, app.measured_time_at_max_s, grid, 0, 0, probe).hit);
    EXPECT_FALSE(cache.lookup(app.counters, app.measured_time_at_max_s, spec.used_frequencies(),
                              0, 0, probe)
                     .hit);
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2 + 2 * catalog.size());

  // A curve shorter than max_rows: the hit returns exactly its rows' bits.
  const std::vector<double> freqs = {500.0, 700.0, 900.0};
  const std::vector<double> power = {101.5, -0.0, 1e-300};
  const std::vector<double> time = {2.25, 1.0 / 3.0, 7.0};
  const std::vector<double> energy = {228.375, 0.0, 7e-300};
  EXPECT_FALSE(cache.lookup(zeros, 0.0, grid, 0, 0, probe).hit);
  cache.insert(probe, grid, freqs, power, time, energy);
  const core::SweepCurveCache::LookupResult hit = cache.lookup(zeros, 0.0, grid, 0, 0, probe);
  ASSERT_TRUE(hit.hit);
  ASSERT_EQ(hit.frequencies.size(), grid.size());
  ASSERT_EQ(hit.power_w.size(), grid.size());
  ASSERT_EQ(hit.time_s.size(), grid.size());
  ASSERT_EQ(hit.energy_j.size(), grid.size());
  for (std::size_t r = 0; r < grid.size(); ++r) {
    EXPECT_EQ(bits(hit.frequencies[r]), bits(freqs[r])) << "row " << r;
    EXPECT_EQ(bits(hit.power_w[r]), bits(power[r])) << "row " << r;
    EXPECT_EQ(bits(hit.time_s[r]), bits(time[r])) << "row " << r;
    EXPECT_EQ(bits(hit.energy_j[r]), bits(energy[r])) << "row " << r;
  }
  for (const CatalogEntry& app : catalog) {
    EXPECT_FALSE(cache.lookup(app.counters, app.measured_time_at_max_s, grid, 0, 0, probe).hit);
  }
  EXPECT_EQ(cache.stats().hits, 1u);
}

// ---------------------------------------------------------------------------
// Service level
// ---------------------------------------------------------------------------

TEST(ServeCache, ExactKeyHitIsBitwiseIdenticalToRecompute) {
  Fixture f;
  SweepService service(f.holder, f.spec);  // default config: exact-key cache on
  std::vector<SweepTicket> first, second;
  for (std::size_t i = 0; i < 4; ++i) first.push_back(service.submit(f.request(i)));
  EXPECT_EQ(service.drain_once(), 4u);
  for (std::size_t i = 0; i < 4; ++i) second.push_back(service.submit(f.request(i)));
  EXPECT_EQ(service.drain_once(), 4u);

  const core::OnlinePredictor predictor(*f.models);
  core::SweepWorkspace ws;
  for (std::size_t i = 0; i < 4; ++i) {
    const SweepOutcome& cold = first[i].wait();
    const SweepOutcome& warm = second[i].wait();
    EXPECT_FALSE(cold.cache_hit);
    EXPECT_TRUE(warm.cache_hit);
    predictor.predict_sweep(f.catalog[i].counters, f.catalog[i].measured_time_at_max_s, f.spec,
                            service.default_frequencies(), ws);
    expect_curves_bitwise_equal(cold, ws);
    expect_curves_bitwise_equal(warm, ws);
    EXPECT_EQ(warm.min_energy_frequency_mhz, cold.min_energy_frequency_mhz);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_misses, 4u);
  EXPECT_EQ(stats.cache_hits, 4u);
  EXPECT_EQ(stats.cache_evictions, 0u);
}

TEST(ServeCache, DisabledCacheMatchesEnabledBitwise) {
  Fixture f;
  ServiceConfig no_cache;
  no_cache.cache.sets = 0;
  SweepService cached(f.holder, f.spec);
  SweepService uncached(f.holder, f.spec, no_cache);

  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      const SweepTicket a = cached.submit(f.request(i));
      const SweepTicket b = uncached.submit(f.request(i));
      EXPECT_EQ(cached.drain_once(), 1u);
      EXPECT_EQ(uncached.drain_once(), 1u);
      const SweepOutcome& oa = a.wait();
      const SweepOutcome& ob = b.wait();
      EXPECT_FALSE(ob.cache_hit);
      ASSERT_EQ(oa.energy_j.size(), ob.energy_j.size());
      for (std::size_t r = 0; r < oa.energy_j.size(); ++r) {
        EXPECT_EQ(bits(oa.power_w[r]), bits(ob.power_w[r]));
        EXPECT_EQ(bits(oa.time_s[r]), bits(ob.time_s[r]));
        EXPECT_EQ(bits(oa.energy_j[r]), bits(ob.energy_j[r]));
      }
    }
  }
  EXPECT_EQ(uncached.stats().cache_hits, 0u);
  EXPECT_EQ(cached.stats().cache_hits, 3u);  // second round all hits
}

TEST(ServeCache, EvictionUnderSetPressureStaysCorrect) {
  Fixture f;
  ServiceConfig config;
  config.cache.sets = 1;  // capacity 2: three apps cannot all stay resident
  config.cache.ways = 2;
  SweepService service(f.holder, f.spec, config);

  const core::OnlinePredictor predictor(*f.models);
  core::SweepWorkspace ws;
  const auto drain_and_check = [&](std::size_t app) -> SweepOutcome {
    const SweepTicket t = service.submit(f.request(app));
    EXPECT_EQ(service.drain_once(), 1u);
    const SweepOutcome out = t.wait();
    // Evicted-and-recomputed or served from cache, the curve must always
    // be the predictor's exact answer.
    predictor.predict_sweep(f.catalog[app].counters, f.catalog[app].measured_time_at_max_s,
                            f.spec, service.default_frequencies(), ws);
    expect_curves_bitwise_equal(out, ws);
    return out;
  };

  EXPECT_FALSE(drain_and_check(0).cache_hit);
  EXPECT_FALSE(drain_and_check(1).cache_hit);
  EXPECT_FALSE(drain_and_check(2).cache_hit);  // evicts app 0 (LRU)
  EXPECT_TRUE(drain_and_check(2).cache_hit);
  EXPECT_TRUE(drain_and_check(1).cache_hit);
  EXPECT_FALSE(drain_and_check(0).cache_hit) << "app 0 must have been evicted";

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.cache_evictions, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 4u);
}

TEST(ServeCache, ModelEpochBumpInvalidatesWholesale) {
  Fixture f;
  SweepService service(f.holder, f.spec);

  const SweepTicket cold = service.submit(f.request(0));
  EXPECT_EQ(service.drain_once(), 1u);
  EXPECT_FALSE(cold.wait().cache_hit);
  const SweepTicket warm = service.submit(f.request(0));
  EXPECT_EQ(service.drain_once(), 1u);
  EXPECT_TRUE(warm.wait().cache_hit);

  // Hot-swap: same request, new epoch. The epoch lives in the cache key,
  // so every old entry is unreachable — this must be a miss computed on
  // the NEW models, not a stale epoch-0 curve.
  const auto swapped = fabricate_models(777);
  f.holder.publish(swapped);
  const SweepTicket after = service.submit(f.request(0));
  EXPECT_EQ(service.drain_once(), 1u);
  const SweepOutcome& out = after.wait();
  EXPECT_FALSE(out.cache_hit);
  EXPECT_EQ(out.model_epoch, 1u);
  const core::OnlinePredictor fresh(*swapped);
  core::SweepWorkspace ws;
  fresh.predict_sweep(f.catalog[0].counters, f.catalog[0].measured_time_at_max_s, f.spec,
                      service.default_frequencies(), ws);
  expect_curves_bitwise_equal(out, ws);

  // And the new epoch caches normally.
  const SweepTicket again = service.submit(f.request(0));
  EXPECT_EQ(service.drain_once(), 1u);
  EXPECT_TRUE(again.wait().cache_hit);
}

TEST(ServeCache, KernelBackendSwapNeverServesTheOtherBackendsCurve) {
  // The backend is the cache key's context word: a request drained under
  // one backend and again after set_kernel_backend must miss, and get the
  // new backend's curve, not the bits the old backend computed.
  const nn::kernels::Backend active = nn::kernels::active_backend();
  if (active == nn::kernels::Backend::kScalar) {
    GTEST_SKIP() << "the active backend is already scalar";
  }
  struct RestoreBackend {
    nn::kernels::Backend backend;
    ~RestoreBackend() { nn::kernels::set_kernel_backend(backend); }
  } restore{active};

  Fixture f;
  SweepService service(f.holder, f.spec);
  const SweepTicket before = service.submit(f.request(0));
  EXPECT_EQ(service.drain_once(), 1u);
  EXPECT_FALSE(before.wait().cache_hit);
  const std::uint64_t misses = service.stats().cache_misses;

  nn::kernels::set_kernel_backend(nn::kernels::Backend::kScalar);
  const SweepTicket after = service.submit(f.request(0));
  EXPECT_EQ(service.drain_once(), 1u);
  const SweepOutcome& out = after.wait();
  EXPECT_FALSE(out.cache_hit);
  EXPECT_EQ(service.stats().cache_misses, misses + 1);
  const core::OnlinePredictor predictor(*f.models);
  core::SweepWorkspace ws;
  predictor.predict_sweep(f.catalog[0].counters, f.catalog[0].measured_time_at_max_s, f.spec,
                          service.default_frequencies(), ws);
  expect_curves_bitwise_equal(out, ws);
}

TEST(ServeCache, EpochInvalidationRacesConcurrentHotSwap) {
  // A publisher thread flips the snapshot between two model sets while the
  // main thread drains the same request over and over through the cache.
  // Every outcome must carry the curve of the model set its epoch names —
  // a cached curve from the previous epoch must never leak across a swap.
  // The TSan lane runs this test to pin the epoch/cache handshake.
  Fixture f;
  const auto models_a = f.models;
  const auto models_b = fabricate_models(777);
  SweepService service(f.holder, f.spec);

  core::SweepWorkspace ws_a, ws_b;
  const core::OnlinePredictor pred_a(*models_a);
  const core::OnlinePredictor pred_b(*models_b);
  pred_a.predict_sweep(f.catalog[0].counters, f.catalog[0].measured_time_at_max_s, f.spec,
                       service.default_frequencies(), ws_a);
  pred_b.predict_sweep(f.catalog[0].counters, f.catalog[0].measured_time_at_max_s, f.spec,
                       service.default_frequencies(), ws_b);

  std::thread publisher([&] {
    // Epoch e (starting from 1) carries models_b when odd, models_a when
    // even — matching the initial epoch-0 = models_a state.
    for (int e = 1; e <= 50; ++e) {
      f.holder.publish(e % 2 == 1 ? models_b : models_a);
      std::this_thread::yield();
    }
  });

  for (int i = 0; i < 200; ++i) {
    const SweepTicket t = service.submit(f.request(0));
    ASSERT_EQ(service.drain_once(), 1u);
    const SweepOutcome& out = t.wait();
    const core::SweepWorkspace& expected = out.model_epoch % 2 == 1 ? ws_b : ws_a;
    ASSERT_EQ(out.energy_j.size(), expected.energy_j.size());
    for (std::size_t r = 0; r < expected.energy_j.size(); ++r) {
      ASSERT_EQ(bits(out.energy_j[r]), bits(expected.energy_j[r]))
          << "iteration " << i << " epoch " << out.model_epoch << " row " << r
          << ": cached curve leaked across a model swap";
    }
  }
  publisher.join();
}

TEST(ServeCache, QuantizedKeySharesRoundingCell) {
  Fixture f;
  ServiceConfig config;
  config.cache.key_bits = 8;  // relative 2^-8 keying grid
  SweepService service(f.holder, f.spec, config);

  const SweepTicket cold = service.submit(f.request(0));
  EXPECT_EQ(service.drain_once(), 1u);
  const SweepOutcome& first = cold.wait();
  EXPECT_FALSE(first.cache_hit);

  // Nudge one counter by one ulp in whichever direction stays inside its
  // 2^-8 rounding cell; the quantized key is unchanged, so this near-twin
  // request must be served the first-seen member's curve.
  SweepRequest near_twin = f.request(0);
  const std::uint64_t b = bits(near_twin.counters.dram_active);
  const std::uint64_t nudged =
      core::SweepCurveCache::quantize_bits(b + 1, 8) == core::SweepCurveCache::quantize_bits(b, 8)
          ? b + 1
          : b - 1;
  ASSERT_EQ(core::SweepCurveCache::quantize_bits(nudged, 8),
            core::SweepCurveCache::quantize_bits(b, 8));
  near_twin.counters.dram_active = std::bit_cast<double>(nudged);
  const SweepTicket twin = service.submit(std::move(near_twin));
  EXPECT_EQ(service.drain_once(), 1u);
  const SweepOutcome& out = twin.wait();
  EXPECT_TRUE(out.cache_hit);
  ASSERT_EQ(out.energy_j.size(), first.energy_j.size());
  for (std::size_t r = 0; r < first.energy_j.size(); ++r) {
    EXPECT_EQ(bits(out.energy_j[r]), bits(first.energy_j[r]))
        << "a cell-sharing hit must serve the first-seen curve verbatim";
  }

  // A 1% perturbation lands in a different cell: honest miss.
  SweepRequest far = f.request(0);
  far.counters.dram_active *= 1.01;
  const SweepTicket miss = service.submit(std::move(far));
  EXPECT_EQ(service.drain_once(), 1u);
  EXPECT_FALSE(miss.wait().cache_hit);
}

// One request that differs from the base request in exactly one input:
// one of the 12 counter fields, t_max, or one interior grid element (not
// first, middle or last, so the hash's grid fingerprint cannot see it).
// Variants 0-11 are the counters in declaration order.
SweepRequest one_field_variant(const Fixture& f, std::size_t variant,
                               const std::vector<double>& grid) {
  SweepRequest r = f.request(0);
  const auto nudge = [](double& v) { v = std::nextafter(v, 1e300); };
  sim::CounterSet& c = r.counters;
  double* const counters[] = {&c.fp64_active,   &c.fp32_active,      &c.sm_app_clock,
                              &c.dram_active,   &c.gr_engine_active, &c.gpu_utilization,
                              &c.power_usage,   &c.sm_active,        &c.sm_occupancy,
                              &c.pcie_tx_bytes, &c.pcie_rx_bytes,    &c.exec_time};
  if (variant < 12) {
    nudge(*counters[variant]);
  } else if (variant == 12) {
    nudge(r.measured_time_at_max_s);
  } else {
    r.frequencies = grid;
    const std::size_t interior = grid.size() / 4;
    EXPECT_NE(interior, 0u);
    EXPECT_NE(interior, grid.size() / 2);
    r.frequencies[interior] += 0.5;
  }
  return r;
}

constexpr std::size_t kOneFieldVariants = 14;  // 12 counters, t_max, one grid element

TEST(ServeCache, OneFieldDifferenceNeverSharesACurveWithinABatch) {
  Fixture f;
  const core::OnlinePredictor predictor(*f.models);
  core::SweepWorkspace ws;
  for (std::size_t v = 0; v < kOneFieldVariants; ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    SweepService service(f.holder, f.spec);
    const SweepRequest variant = one_field_variant(f, v, service.default_frequencies());
    const SweepTicket base = service.submit(f.request(0));
    const SweepTicket other = service.submit(variant);
    ASSERT_EQ(service.drain_once(), 2u);
    EXPECT_EQ(service.stats().unique_items, 2u);
    EXPECT_EQ(service.stats().coalesced, 0u);
    EXPECT_FALSE(other.wait().coalesced);
    EXPECT_FALSE(base.wait().coalesced);
    predictor.predict_sweep(variant.counters, variant.measured_time_at_max_s, f.spec,
                            variant.frequencies.empty() ? service.default_frequencies()
                                                        : variant.frequencies,
                            ws);
    expect_curves_bitwise_equal(other.wait(), ws);
  }
}

TEST(ServeCache, OneFieldDifferenceNeverSharesACurveAcrossDrains) {
  Fixture f;
  const core::OnlinePredictor predictor(*f.models);
  core::SweepWorkspace ws;
  SweepService service(f.holder, f.spec);
  (void)service.submit(f.request(0));
  ASSERT_EQ(service.drain_once(), 1u);
  for (std::size_t v = 0; v < kOneFieldVariants; ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    const SweepRequest variant = one_field_variant(f, v, service.default_frequencies());
    const SweepTicket t = service.submit(variant);
    ASSERT_EQ(service.drain_once(), 1u);
    EXPECT_FALSE(t.wait().cache_hit);
    predictor.predict_sweep(variant.counters, variant.measured_time_at_max_s, f.spec,
                            variant.frequencies.empty() ? service.default_frequencies()
                                                        : variant.frequencies,
                            ws);
    expect_curves_bitwise_equal(t.wait(), ws);
  }
  EXPECT_EQ(service.stats().cache_hits, 0u);
  EXPECT_EQ(service.stats().cache_misses, 1u + kOneFieldVariants);
}

TEST(ServeCache, BitIdenticalRequestsShareACurve) {
  // A custom grid that is bitwise equal to the default grid (another
  // buffer, same bits) is the same computation as a default-grid request.
  Fixture f;
  SweepService service(f.holder, f.spec);
  SweepRequest same_grid = f.request(0);
  same_grid.frequencies = service.default_frequencies();
  const SweepTicket by_default = service.submit(f.request(0));
  const SweepTicket by_copy = service.submit(same_grid);
  const SweepTicket twin = service.submit(f.request(0));
  ASSERT_EQ(service.drain_once(), 3u);
  EXPECT_EQ(service.stats().unique_items, 1u);
  EXPECT_EQ(service.stats().coalesced, 2u);
  EXPECT_TRUE(by_copy.wait().coalesced);
  EXPECT_TRUE(twin.wait().coalesced);

  const core::OnlinePredictor predictor(*f.models);
  core::SweepWorkspace ws;
  predictor.predict_sweep(f.catalog[0].counters, f.catalog[0].measured_time_at_max_s, f.spec,
                          service.default_frequencies(), ws);
  for (const SweepTicket* t : {&by_default, &by_copy, &twin})
    expect_curves_bitwise_equal(t->wait(), ws);

  // Across drains: the copied grid hits the default-grid request's entry.
  const SweepTicket later = service.submit(same_grid);
  ASSERT_EQ(service.drain_once(), 1u);
  EXPECT_TRUE(later.wait().cache_hit);
  expect_curves_bitwise_equal(later.wait(), ws);
}

TEST(ServeCache, HitSurvivesEvictionsByMissesOfTheSameDrain) {
  // Two ways, one set. App 0 is cached; the next drain hits it and misses
  // apps 1 and 2, whose inserts evict app 0's way. The hit's outcome must
  // still be app 0's exact curve, not whatever overwrote its slab slot.
  Fixture f;
  ServiceConfig config;
  config.cache.sets = 1;
  config.cache.ways = 2;
  SweepService service(f.holder, f.spec, config);
  (void)service.submit(f.request(0));
  ASSERT_EQ(service.drain_once(), 1u);

  const SweepTicket hit = service.submit(f.request(0));
  const SweepTicket miss_a = service.submit(f.request(1));
  const SweepTicket miss_b = service.submit(f.request(2));
  ASSERT_EQ(service.drain_once(), 3u);
  EXPECT_TRUE(hit.wait().cache_hit);
  EXPECT_FALSE(miss_a.wait().cache_hit);
  EXPECT_FALSE(miss_b.wait().cache_hit);
  EXPECT_GE(service.stats().cache_evictions, 1u);

  const core::OnlinePredictor predictor(*f.models);
  core::SweepWorkspace ws;
  for (const auto& [ticket, app] : {std::pair{hit, std::size_t{0}},
                                    std::pair{miss_a, std::size_t{1}},
                                    std::pair{miss_b, std::size_t{2}}}) {
    predictor.predict_sweep(f.catalog[app].counters, f.catalog[app].measured_time_at_max_s,
                            f.spec, service.default_frequencies(), ws);
    expect_curves_bitwise_equal(ticket.wait(), ws);
    EXPECT_EQ(ticket.wait().min_energy_frequency_mhz,
              ws.frequencies[stats::argmin(ws.energy_j)]);
  }
}

TEST(ServeCache, ParallelShardedDrainMatchesSerialBitwise) {
  // The sharded drain partitions uncached unique items across per-shard
  // workspaces on the deterministic pool; because predict_sweep_batch is
  // row-local, every per-request curve must be bitwise identical to the
  // one-shard serial drain, for any batch size around and across the
  // shard-grain boundaries.
  set_num_threads(4);
  Fixture f;
  f.catalog = make_catalog(100, f.spec, 7);
  ServiceConfig serial_config;
  serial_config.cache.sets = 0;  // isolate the sharding axis from memoization
  serial_config.drain_shards = 1;
  ServiceConfig sharded_config = serial_config;
  sharded_config.drain_shards = 4;
  SweepService serial(f.holder, f.spec, serial_config);
  SweepService sharded(f.holder, f.spec, sharded_config);

  for (const std::size_t n : {std::size_t{1}, std::size_t{16}, std::size_t{61}, std::size_t{100}}) {
    std::vector<SweepTicket> a, b;
    for (std::size_t i = 0; i < n; ++i) {
      a.push_back(serial.submit(f.request(i)));
      b.push_back(sharded.submit(f.request(i)));
    }
    EXPECT_EQ(serial.drain_once(), n);
    EXPECT_EQ(sharded.drain_once(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const SweepOutcome& oa = a[i].wait();
      const SweepOutcome& ob = b[i].wait();
      ASSERT_EQ(oa.energy_j.size(), ob.energy_j.size()) << "batch " << n << " request " << i;
      for (std::size_t r = 0; r < oa.energy_j.size(); ++r) {
        ASSERT_EQ(bits(oa.frequencies[r]), bits(ob.frequencies[r]));
        ASSERT_EQ(bits(oa.power_w[r]), bits(ob.power_w[r]));
        ASSERT_EQ(bits(oa.time_s[r]), bits(ob.time_s[r]));
        ASSERT_EQ(bits(oa.energy_j[r]), bits(ob.energy_j[r]))
            << "batch " << n << " request " << i << " row " << r;
      }
      EXPECT_EQ(oa.min_energy_frequency_mhz, ob.min_energy_frequency_mhz);
    }
  }
  set_num_threads(0);
}

TEST(ServeCache, LoadSpecRejectsNegativeZipf) {
  Fixture f;
  SweepService service(f.holder, f.spec);
  service.start();
  LoadSpec bad;
  bad.zipf_s = -0.5;
  EXPECT_THROW(run_open_loop(service, bad), InvalidArgument);
  service.stop();
}

}  // namespace
}  // namespace gpufreq::serve
