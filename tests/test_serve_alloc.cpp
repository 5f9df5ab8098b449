// Zero-allocation guarantee of the batched serving path, verified with a
// counting global operator new (same instrument as test_inference_sweep):
// a warmed predict_sweep_batch — and a warmed SweepService drain cycle,
// locks, coalescing scan, result publication and all — must never touch
// the heap in steady state. The instrument also counts bytes, which pins
// how much a workspace reserves and how much a first drain grows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/nn/network.hpp"
#include "gpufreq/nn/serialize.hpp"
#include "gpufreq/serve/load_generator.hpp"
#include "gpufreq/serve/sweep_service.hpp"
#include "gpufreq/sim/gpu_spec.hpp"
#include "gpufreq/util/thread_pool.hpp"

namespace {

std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocation_count{0};
std::atomic<std::size_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
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

namespace gpufreq::serve {
namespace {

TEST(ServeAlloc, SteadyStateBatchSweepIsAllocationFree) {
  const auto models = fabricate_models(42);
  const core::OnlinePredictor predictor(*models);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const auto catalog = make_catalog(4, spec, 7);
  const std::vector<double> grid = spec.used_frequencies();

  std::vector<core::BatchSweepItem> items;
  for (std::size_t i = 0; i < 61; ++i) {
    const CatalogEntry& app = catalog[i % catalog.size()];
    items.push_back({.counters = &app.counters,
                     .measured_time_at_max_s = app.measured_time_at_max_s,
                     .frequencies = grid});
  }

  core::BatchSweepWorkspace ws;
  for (int i = 0; i < 3; ++i) predictor.predict_sweep_batch(items, spec, ws);

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  for (int i = 0; i < 5; ++i) predictor.predict_sweep_batch(items, spec, ws);
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "steady-state predict_sweep_batch must not touch the heap";
}

TEST(ServeAlloc, ReservedWorkspaceFirstBatchIsAllocationFree) {
  const auto models = fabricate_models(42);
  const core::OnlinePredictor predictor(*models);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const auto catalog = make_catalog(4, spec, 7);
  const std::vector<double> grid = spec.used_frequencies();

  std::vector<core::BatchSweepItem> items;
  for (std::size_t i = 0; i < 16; ++i) {
    const CatalogEntry& app = catalog[i % catalog.size()];
    items.push_back({.counters = &app.counters,
                     .measured_time_at_max_s = app.measured_time_at_max_s,
                     .frequencies = grid});
  }

  // Warm the process-wide lazy state (kernel dispatch, thread pool) with a
  // throwaway workspace, then verify a freshly *reserved* workspace serves
  // its very first batch without allocating.
  {
    core::BatchSweepWorkspace warmup;
    predictor.predict_sweep_batch(items, spec, warmup);
  }
  core::BatchSweepWorkspace ws;
  predictor.reserve_batch_workspace(ws, items.size(), items.size() * grid.size());

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  predictor.predict_sweep_batch(items, spec, ws);
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "a reserve_batch_workspace()-sized workspace must serve its first batch "
         "without allocating";
}

TEST(ServeAlloc, ReservedWorkspaceFirstFullDrainIsAllocationFree) {
  // A full 128-item drain (7808 rows) through the chunk-major forward:
  // reserve_batch_workspace must pre-size everything the first batch
  // touches, the networks' output matrices and chunk tiles included.
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const auto catalog = make_catalog(4, spec, 7);
  const std::vector<double> grid = spec.used_frequencies();
  std::vector<core::BatchSweepItem> items;
  for (std::size_t i = 0; i < ServiceConfig{}.max_batch; ++i) {
    const CatalogEntry& app = catalog[i % catalog.size()];
    items.push_back({.counters = &app.counters,
                     .measured_time_at_max_s = app.measured_time_at_max_s,
                     .frequencies = grid});
  }
  const auto models = fabricate_models(42);
  const core::OnlinePredictor predictor(*models);
  {
    core::BatchSweepWorkspace warmup;  // process-wide lazy state only
    predictor.predict_sweep_batch(std::span(items).first(2), spec, warmup);
  }
  core::BatchSweepWorkspace ws;
  predictor.reserve_batch_workspace(ws, items.size(), items.size() * grid.size());

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  predictor.predict_sweep_batch(items, spec, ws);
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "the first full drain on a reserved workspace must not allocate";
}

TEST(ServeAlloc, ChunkMajorForwardAllocatesOnlyInReserve) {
  // Network level: reserve_workspace is where the growth happens; a
  // forward at a new high-water row count, and any smaller or equal one
  // after it, allocates nothing.
  const std::size_t kDrainRows = 128 * 61;
  const nn::Network net(3, nn::Network::paper_architecture(), 17);
  const nn::Matrix big(kDrainRows, 3, 0.25f);
  const nn::Matrix small(61, 3, 0.5f);
  {
    nn::InferenceWorkspace warmup;  // process-wide lazy state only
    (void)net.predict_into(small, warmup);
  }
  nn::InferenceWorkspace ws;
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  net.reserve_workspace(ws, kDrainRows);
  g_count_allocations.store(false);
  EXPECT_GT(g_allocation_count.load(), 0u) << "reserve_workspace owns the growth";

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  (void)net.predict_into(big, ws);    // first call, new high-water mark
  (void)net.predict_into(small, ws);  // shrink
  (void)net.predict_into(big, ws);    // grow back
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "a reserved chunk-major forward must not allocate at any row count";
}

struct CountedBytes {
  std::size_t allocations;
  std::size_t bytes;
};

template <typename Fn>
CountedBytes count_bytes(Fn&& fn) {
  g_allocation_count.store(0);
  g_allocated_bytes.store(0);
  g_count_allocations.store(true);
  fn();
  g_count_allocations.store(false);
  return {g_allocation_count.load(), g_allocated_bytes.load()};
}

TEST(ServeAlloc, ReserveWorkspaceHoldsOneTileRegionPerBand) {
  // The forward's scratch is bounded by the pool, not the batch: a
  // reserve for a full drain allocates the rows x 1 output plus one
  // 2 x 48 x 64 tile region per band (one band per pool thread), where
  // a tile region per 48-row chunk used to cost rows x 128 floats.
  constexpr std::size_t kDrainRows = 128 * 61;
  constexpr std::size_t kRegionFloats = 2 * 48 * 64;
  const nn::Network net(3, nn::Network::paper_architecture(), 17);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    set_num_threads(threads);
    nn::InferenceWorkspace ws;
    const CountedBytes reserved = count_bytes([&] { net.reserve_workspace(ws, kDrainRows); });
    EXPECT_EQ(reserved.allocations, 2u);
    EXPECT_EQ(reserved.bytes, (kDrainRows + threads * kRegionFloats) * sizeof(float));
    const nn::Matrix x(kDrainRows, 3, 0.25f);
    EXPECT_EQ(count_bytes([&] { (void)net.predict_into(x, ws); }).allocations, 0u);
  }
  set_num_threads(0);
}

TEST(ServeAlloc, FirstFullDrainOfAFreshServiceGrowsByItsRowsAndTileRegions) {
  // A fresh service grows its shard workspaces on its first drain. For a
  // full batch of 128 distinct default-grid requests (7808 rows) that is
  // 76 bytes a row: the sorted grid and three curves (4 doubles), the
  // shared feature matrix and each model's standardized copy (3 floats
  // each), and the two model outputs (1 float each). On top come the
  // per-item offsets and one 2 x 48 x 64 tile region per band, per model,
  // per drain shard (one shard and one band per pool thread). With a tile
  // region per 48-row chunk, the tiles alone were 8 MB.
  constexpr std::size_t kRows = 128 * 61;
  constexpr std::size_t kRowBytes = 4 * sizeof(double) + 3 * 3 * sizeof(float) + 2 * sizeof(float);
  constexpr std::size_t kOffsetSlack = 2048;
  constexpr std::size_t kRegionBytes = 2 * 48 * 64 * sizeof(float);
  const auto models = fabricate_models(42);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  ModelSnapshotHolder holder(models);
  const auto catalog = make_catalog(4, spec, 7);
  const std::size_t batch = ServiceConfig{}.max_batch;
  const auto submit_all = [&](SweepService& service) {
    for (std::size_t i = 0; i < batch; ++i) {
      SweepRequest r;
      r.descriptor = {.category = WorkloadCategory::kInteractive, .band = 1};
      const CatalogEntry& app = catalog[i % catalog.size()];
      r.counters = app.counters;
      // Distinct t_max per request: no two requests share a cache key.
      r.measured_time_at_max_s = app.measured_time_at_max_s * (1.0 + 1e-3 * static_cast<double>(i));
      (void)service.submit(std::move(r));
    }
  };
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    set_num_threads(threads);
    {
      SweepService warmup(holder, spec);  // process-wide lazy state only
      submit_all(warmup);
      ASSERT_EQ(warmup.drain_once(), batch);
    }
    SweepService service(holder, spec);
    submit_all(service);
    std::size_t served = 0;
    const CountedBytes first = count_bytes([&] { served = service.drain_once(); });
    ASSERT_EQ(served, batch);
    EXPECT_EQ(service.stats().unique_items, batch);
    const std::size_t tiles = threads * 2 * threads * kRegionBytes;
    EXPECT_GE(first.bytes, kRows * kRowBytes + tiles);
    EXPECT_LE(first.bytes, kRows * kRowBytes + tiles + kOffsetSlack);
  }
  set_num_threads(0);
}

TEST(ServeAlloc, SteadyStateServiceDrainIsAllocationFree) {
  const auto models = fabricate_models(42);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  ModelSnapshotHolder holder(models);
  ServiceConfig config;
  config.max_batch = 32;
  SweepService service(holder, spec, config);
  const auto catalog = make_catalog(4, spec, 7);

  const auto submit_round = [&] {
    for (std::size_t i = 0; i < 32; ++i) {
      SweepRequest r;
      r.descriptor = {.category = WorkloadCategory::kInteractive, .band = 1};
      r.counters = catalog[i % catalog.size()].counters;
      r.measured_time_at_max_s = catalog[i % catalog.size()].measured_time_at_max_s;
      (void)service.submit(std::move(r));  // slot allocation happens HERE, not in the drain
    }
  };

  // Warm: grows the queue rings, drain scratch, batch workspace, and the
  // snapshot cache to their steady-state sizes.
  for (int round = 0; round < 2; ++round) {
    submit_round();
    ASSERT_EQ(service.drain_once(), 32u);
  }

  // Steady state: the whole drain cycle — pop, coalescing scan, fused
  // batched sweep, result copies, completion handshakes, stats — runs
  // without a single heap allocation.
  submit_round();
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const std::size_t served = service.drain_once();
  g_count_allocations.store(false);
  EXPECT_EQ(served, 32u);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "steady-state SweepService::drain_once must not touch the heap";
}

TEST(ServeAlloc, SubmitAllocatesOnlyTheSlotAndItsOutcome) {
  // All of a request's heap traffic happens in submit(): the shared slot
  // (one make_shared block) and the four outcome curves reserved to the
  // grid length. A default-grid request holds a view of the service's
  // grid instead of a copy; a custom grid is moved into the slot.
  constexpr std::size_t kDefaultGridSubmitAllocations = 5;
  constexpr std::size_t kCustomGridSubmitAllocations = 5;
  const auto models = fabricate_models(42);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  ModelSnapshotHolder holder(models);
  SweepService service(holder, spec);
  const auto catalog = make_catalog(2, spec, 7);
  const auto request = [&](std::vector<double> grid) {
    SweepRequest r;
    r.descriptor = {.category = WorkloadCategory::kInteractive, .band = 1};
    r.counters = catalog[0].counters;
    r.measured_time_at_max_s = catalog[0].measured_time_at_max_s;
    r.frequencies = std::move(grid);
    return r;
  };
  const std::vector<double> custom = {1410.0, 510.0, 900.0};
  for (int round = 0; round < 2; ++round) {  // grow the queue ring once
    (void)service.submit(request({}));
    (void)service.submit(request(custom));
    ASSERT_EQ(service.drain_once(), 2u);
  }

  SweepRequest by_default = request({});
  SweepRequest with_grid = request(custom);
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const SweepTicket a = service.submit(std::move(by_default));
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), kDefaultGridSubmitAllocations);

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const SweepTicket b = service.submit(std::move(with_grid));
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), kCustomGridSubmitAllocations);

  ASSERT_EQ(service.drain_once(), 2u);
  EXPECT_EQ(a.wait().frequencies.size(), service.default_frequencies().size());
  EXPECT_EQ(b.wait().frequencies, (std::vector<double>{510.0, 900.0, 1410.0}));
}

TEST(ServeAlloc, LoadModelAllocatesOnlyTheLayersAndScalers) {
  // nn::load_model reads each layer's weights and bias straight into the
  // layer's own storage: one block for the layer list, a weight matrix
  // and a bias vector per layer, and the means and scales of the two
  // scalers. No init draws, staging copies or second weight layout.
  constexpr std::size_t kPaperModelLoadAllocations = 1 + 4 * 2 + 2 * 2;
  const auto models = fabricate_models(42);
  std::ostringstream saved;
  nn::save_model(models->power.bundle(), saved);
  std::istringstream in(saved.str());
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const nn::ModelBundle loaded = nn::load_model(in);
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), kPaperModelLoadAllocations);
  ASSERT_EQ(loaded.network.num_layers(), 4u);
  EXPECT_EQ(loaded.network.parameter_count(), 8641u);
}

TEST(ServeAlloc, CachedDrainHitsAndInsertsAreAllocationFree) {
  // The sweep-curve cache is sized at construction: a steady-state drain
  // must stay heap-silent whether it is served from the cache (hits copy
  // out of the preallocated slab) or misses, computes, and inserts —
  // including evictions, which this undersized cache forces every round.
  const auto models = fabricate_models(42);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  ModelSnapshotHolder holder(models);
  ServiceConfig config;
  config.max_batch = 32;
  config.cache.sets = 1;  // capacity 2 < 4 distinct apps: permanent pressure
  config.cache.ways = 2;
  SweepService service(holder, spec, config);
  const auto catalog = make_catalog(4, spec, 7);

  const auto submit_round = [&] {
    for (std::size_t i = 0; i < 32; ++i) {
      SweepRequest r;
      r.descriptor = {.category = WorkloadCategory::kInteractive, .band = 1};
      r.counters = catalog[i % catalog.size()].counters;
      r.measured_time_at_max_s = catalog[i % catalog.size()].measured_time_at_max_s;
      (void)service.submit(std::move(r));
    }
  };

  for (int round = 0; round < 2; ++round) {
    submit_round();
    ASSERT_EQ(service.drain_once(), 32u);
  }

  submit_round();
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const std::size_t served = service.drain_once();
  g_count_allocations.store(false);
  EXPECT_EQ(served, 32u);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "cache lookups, inserts, and evictions must not touch the heap";
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_evictions, 0u);

  // Same contract for the all-hit regime: a roomy cache warmed on the same
  // catalog serves every repeat drain purely from the slab.
  ServiceConfig roomy;
  roomy.max_batch = 32;
  SweepService cached(holder, spec, roomy);
  const auto submit_cached = [&] {
    for (std::size_t i = 0; i < 32; ++i) {
      SweepRequest r;
      r.descriptor = {.category = WorkloadCategory::kInteractive, .band = 1};
      r.counters = catalog[i % catalog.size()].counters;
      r.measured_time_at_max_s = catalog[i % catalog.size()].measured_time_at_max_s;
      (void)cached.submit(std::move(r));
    }
  };
  for (int round = 0; round < 2; ++round) {
    submit_cached();
    ASSERT_EQ(cached.drain_once(), 32u);
  }
  submit_cached();
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  ASSERT_EQ(cached.drain_once(), 32u);
  g_count_allocations.store(false);
  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "an all-hit cached drain must not touch the heap";
  EXPECT_GT(cached.stats().cache_hits, 0u);
}

}  // namespace
}  // namespace gpufreq::serve
