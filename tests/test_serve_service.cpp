// End-to-end SweepService behavior: fused batched outcomes bitwise-match
// independent sweeps, strict priority with FIFO within band, bit-identical
// request coalescing, hot model swaps between batches, the background
// worker + open-loop load generator, and submit-time input validation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/serve/load_generator.hpp"
#include "gpufreq/serve/sweep_service.hpp"
#include "gpufreq/sim/gpu_spec.hpp"
#include "gpufreq/util/error.hpp"

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

TEST(ServeService, BatchedOutcomeMatchesIndependentSweepBitwise) {
  Fixture f;
  SweepService service(f.holder, f.spec);
  std::vector<SweepTicket> tickets;
  for (std::size_t i = 0; i < 6; ++i) tickets.push_back(service.submit(f.request(i)));
  EXPECT_EQ(service.pending(), 6u);
  EXPECT_EQ(service.drain_once(), 6u);
  EXPECT_EQ(service.pending(), 0u);

  const core::OnlinePredictor predictor(*f.models);
  core::SweepWorkspace ws;
  for (std::size_t i = 0; i < 6; ++i) {
    const SweepOutcome& out = tickets[i].wait();
    predictor.predict_sweep(f.catalog[i].counters, f.catalog[i].measured_time_at_max_s, f.spec,
                            service.default_frequencies(), ws);
    ASSERT_EQ(out.frequencies.size(), ws.frequencies.size());
    for (std::size_t r = 0; r < ws.frequencies.size(); ++r) {
      EXPECT_EQ(bits(out.frequencies[r]), bits(ws.frequencies[r]));
      EXPECT_EQ(bits(out.power_w[r]), bits(ws.power_w[r]));
      EXPECT_EQ(bits(out.time_s[r]), bits(ws.time_s[r]));
      EXPECT_EQ(bits(out.energy_j[r]), bits(ws.energy_j[r]));
    }
    // The service's frequency pick is the energy argmin of the same curve.
    std::size_t best = 0;
    for (std::size_t r = 1; r < ws.energy_j.size(); ++r)
      if (ws.energy_j[r] < ws.energy_j[best]) best = r;
    EXPECT_EQ(out.min_energy_frequency_mhz, ws.frequencies[best]);
    EXPECT_EQ(out.batch_size, 6u);
    EXPECT_EQ(out.model_epoch, 0u);
    EXPECT_FALSE(out.coalesced);  // six distinct applications
    EXPECT_GE(out.total_latency_s, out.queue_latency_s);
  }
}

TEST(ServeService, StrictPriorityThenFifoAcrossDrains) {
  Fixture f;
  ServiceConfig config;
  config.max_batch = 1;  // one request per drain -> observable order
  SweepService service(f.holder, f.spec, config);

  const SweepTicket batch_a = service.submit(f.request(0, WorkloadCategory::kBatch, 0));
  const SweepTicket batch_b = service.submit(f.request(1, WorkloadCategory::kBatch, 0));
  const SweepTicket interactive = service.submit(f.request(2, WorkloadCategory::kInteractive, 0));
  const SweepTicket system = service.submit(f.request(3, WorkloadCategory::kSystem, 0));

  // Interactive (and system) preempt earlier-enqueued batch work; the two
  // batch requests drain in FIFO order.
  EXPECT_EQ(service.drain_once(), 1u);
  EXPECT_TRUE(system.done());
  EXPECT_FALSE(interactive.done());
  EXPECT_EQ(service.drain_once(), 1u);
  EXPECT_TRUE(interactive.done());
  EXPECT_FALSE(batch_a.done());
  EXPECT_EQ(service.drain_once(), 1u);
  EXPECT_TRUE(batch_a.done());
  EXPECT_FALSE(batch_b.done());
  EXPECT_EQ(service.drain_once(), 1u);
  EXPECT_TRUE(batch_b.done());
  EXPECT_EQ(service.drain_once(), 0u);
}

TEST(ServeService, CoalescesBitIdenticalRequests) {
  Fixture f;
  SweepService service(f.holder, f.spec);
  std::vector<SweepTicket> same;
  for (int i = 0; i < 8; ++i) same.push_back(service.submit(f.request(0)));
  const SweepTicket other = service.submit(f.request(1));
  EXPECT_EQ(service.drain_once(), 9u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 9u);
  EXPECT_EQ(stats.unique_items, 2u);  // one GEMM row-block per distinct app
  EXPECT_EQ(stats.coalesced, 7u);

  const SweepOutcome& reference = same[0].wait();
  EXPECT_TRUE(reference.coalesced);
  for (const SweepTicket& t : same) {
    const SweepOutcome& out = t.wait();
    ASSERT_EQ(out.energy_j.size(), reference.energy_j.size());
    for (std::size_t r = 0; r < out.energy_j.size(); ++r)
      EXPECT_EQ(bits(out.energy_j[r]), bits(reference.energy_j[r]));
  }
  EXPECT_FALSE(other.wait().coalesced);
}

TEST(ServeService, PerRequestGridsAndDefaults) {
  Fixture f;
  SweepService service(f.holder, f.spec);
  SweepRequest custom = f.request(0);
  custom.frequencies = {1410.0, 510.0, 900.0};  // unsorted on purpose
  const SweepTicket with_grid = service.submit(std::move(custom));
  const SweepTicket with_default = service.submit(f.request(1));
  EXPECT_EQ(service.drain_once(), 2u);

  const SweepOutcome& a = with_grid.wait();
  ASSERT_EQ(a.frequencies.size(), 3u);
  EXPECT_EQ(a.frequencies, (std::vector<double>{510.0, 900.0, 1410.0}));

  const SweepOutcome& b = with_default.wait();
  EXPECT_EQ(b.frequencies.size(), f.spec.used_frequencies().size());
}

TEST(ServeService, HotSwapBetweenBatchesChangesEpochAndModels) {
  Fixture f;
  SweepService service(f.holder, f.spec);
  const SweepTicket before = service.submit(f.request(0));
  EXPECT_EQ(service.drain_once(), 1u);
  EXPECT_EQ(before.wait().model_epoch, 0u);

  f.holder.publish(fabricate_models(777));
  const SweepTicket after = service.submit(f.request(0));
  EXPECT_EQ(service.drain_once(), 1u);
  EXPECT_EQ(after.wait().model_epoch, 1u);

  // Different weights -> different predictions for the same request.
  bool any_diff = false;
  for (std::size_t r = 0; r < before.wait().energy_j.size(); ++r)
    any_diff |= bits(before.wait().energy_j[r]) != bits(after.wait().energy_j[r]);
  EXPECT_TRUE(any_diff);
}

TEST(ServeService, BackgroundWorkerServesConcurrentSubmitters) {
  Fixture f;
  SweepService service(f.holder, f.spec);
  service.start();
  EXPECT_TRUE(service.running());

  std::vector<SweepTicket> tickets;
  for (int i = 0; i < 200; ++i)
    tickets.push_back(service.submit(f.request(static_cast<std::size_t>(i) % 8)));
  for (const SweepTicket& t : tickets) EXPECT_GT(t.wait().energy_j.size(), 0u);

  service.stop();
  EXPECT_FALSE(service.running());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, 200u);
  EXPECT_EQ(stats.submitted, 200u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_THROW(service.submit(f.request(0)), InvalidArgument);  // stopped
}

TEST(ServeService, OpenLoopLoadGeneratorReportsPerBandLatency) {
  Fixture f;
  SweepService service(f.holder, f.spec);
  LoadSpec load;
  load.rate_hz = 2000.0;
  load.duration_s = 0.1;
  load.catalog_size = 4;

  EXPECT_THROW(run_open_loop(service, load), InvalidArgument);  // not started

  service.start();
  const LoadReport report = run_open_loop(service, load);
  service.stop();

  EXPECT_GT(report.submitted, 0u);
  EXPECT_EQ(report.completed, report.submitted);
  EXPECT_GT(report.throughput_rps, 0.0);
  ASSERT_EQ(report.bands.size(), kWorkloadCategories);
  EXPECT_EQ(report.bands[0].band, "system");
  EXPECT_EQ(report.bands[1].band, "interactive");
  EXPECT_EQ(report.bands[2].band, "batch");
  std::size_t across_bands = 0;
  for (const BandLoadStats& b : report.bands) {
    across_bands += b.completed;
    if (b.completed > 0) {
      EXPECT_LE(b.p50_latency_ms, b.p99_latency_ms);
    }
  }
  EXPECT_EQ(across_bands, report.completed);
  EXPECT_EQ(report.service.completed, report.completed);
}

TEST(ServeService, OpenLoopRejectsDegenerateSpecs) {
  Fixture f;
  SweepService service(f.holder, f.spec);
  service.start();

  LoadSpec zero_rate;
  zero_rate.rate_hz = 0.0;  // zero arrivals/s: the Poisson gap is undefined
  EXPECT_THROW(run_open_loop(service, zero_rate), InvalidArgument);
  LoadSpec negative_rate;
  negative_rate.rate_hz = -5.0;
  EXPECT_THROW(run_open_loop(service, negative_rate), InvalidArgument);
  LoadSpec zero_duration;
  zero_duration.duration_s = 0.0;
  EXPECT_THROW(run_open_loop(service, zero_duration), InvalidArgument);
  LoadSpec no_catalog;
  no_catalog.catalog_size = 0;
  EXPECT_THROW(run_open_loop(service, no_catalog), InvalidArgument);
  LoadSpec bad_mix;
  bad_mix.interactive_frac = 0.8;
  bad_mix.system_frac = 0.4;  // fractions sum past 1.0
  EXPECT_THROW(run_open_loop(service, bad_mix), InvalidArgument);

  // The degenerate specs must not have corrupted the service: a sane load
  // still runs to completion afterwards.
  LoadSpec ok;
  ok.rate_hz = 2000.0;
  ok.duration_s = 0.01;
  ok.catalog_size = 2;
  const LoadReport report = run_open_loop(service, ok);
  service.stop();
  EXPECT_EQ(report.completed, report.submitted);
}

TEST(ServeService, OpenLoopSingleBurstCompletesEveryArrival) {
  // A high rate over a tiny window queues essentially every arrival at
  // once (one burst, ~100 expected requests in 2ms). Nothing may be
  // dropped, and the per-band counts must partition the total.
  Fixture f;
  SweepService service(f.holder, f.spec);
  service.start();
  LoadSpec burst;
  burst.rate_hz = 50000.0;
  burst.duration_s = 0.002;
  burst.catalog_size = 3;
  burst.seed = 99;
  const LoadReport report = run_open_loop(service, burst);
  service.stop();

  EXPECT_GT(report.submitted, 0u);
  EXPECT_EQ(report.completed, report.submitted);
  EXPECT_EQ(report.service.completed, report.completed);
  std::size_t across_bands = 0;
  for (const BandLoadStats& b : report.bands) across_bands += b.completed;
  EXPECT_EQ(across_bands, report.completed);
}

TEST(ServeService, OpenLoopArrivalScheduleIsSeedDeterministic) {
  // The arrival schedule (count, apps, categories) is drawn entirely from
  // the seed before any submission: back-to-back runs of the same spec see
  // identical loads even though wall-clock pacing differs.
  Fixture f;
  SweepService service(f.holder, f.spec);
  service.start();
  LoadSpec load;
  load.rate_hz = 3000.0;
  load.duration_s = 0.02;
  load.catalog_size = 4;
  const LoadReport a = run_open_loop(service, load);
  const LoadReport b = run_open_loop(service, load);
  service.stop();

  EXPECT_EQ(a.submitted, b.submitted);
  ASSERT_EQ(a.bands.size(), b.bands.size());
  for (std::size_t i = 0; i < a.bands.size(); ++i) {
    EXPECT_EQ(a.bands[i].completed, b.bands[i].completed) << a.bands[i].band;
  }
}

TEST(ServeService, StopDrainsPendingRequestsWithoutDrops) {
  Fixture f;
  ServiceConfig config;
  config.max_batch = 4;  // force several drains for the backlog
  SweepService service(f.holder, f.spec, config);
  service.start();

  std::vector<SweepTicket> tickets;
  for (int i = 0; i < 64; ++i) {
    tickets.push_back(service.submit(
        f.request(static_cast<std::size_t>(i) % 8,
                  i % 3 == 0 ? WorkloadCategory::kInteractive : WorkloadCategory::kBatch,
                  i % kBandsPerCategory)));
  }
  // stop() is drain-then-exit, not abandon: the worker must serve the
  // whole backlog before joining, so every ticket completes and none of
  // the waits below can hang.
  service.stop();
  EXPECT_FALSE(service.running());
  EXPECT_EQ(service.pending(), 0u);
  for (const SweepTicket& t : tickets) {
    EXPECT_TRUE(t.done());
    EXPECT_GT(t.wait().energy_j.size(), 0u);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 64u);
  EXPECT_EQ(stats.completed, 64u);
}

TEST(ServeService, ValidatesRequests) {
  Fixture f;
  SweepService service(f.holder, f.spec);
  SweepRequest bad_time = f.request(0);
  bad_time.measured_time_at_max_s = 0.0;
  EXPECT_THROW(service.submit(std::move(bad_time)), InvalidArgument);

  SweepRequest bad_band = f.request(0);
  bad_band.descriptor.band = kBandsPerCategory;
  EXPECT_THROW(service.submit(std::move(bad_band)), InvalidArgument);

  ServiceConfig zero_batch;
  zero_batch.max_batch = 0;
  EXPECT_THROW(SweepService(f.holder, f.spec, zero_batch), InvalidArgument);
}

TEST(ServeService, RejectsNonFiniteProfilesAndGridsAtSubmit) {
  Fixture f;
  SweepService service(f.holder, f.spec);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  for (const double poison : {kNan, kInf, -kInf}) {
    SweepRequest counter = f.request(0);
    counter.counters.exec_time = poison;
    EXPECT_THROW(service.submit(std::move(counter)), InvalidArgument);
    SweepRequest first_counter = f.request(0);
    first_counter.counters.fp64_active = poison;
    EXPECT_THROW(service.submit(std::move(first_counter)), InvalidArgument);
    SweepRequest time = f.request(0);
    time.measured_time_at_max_s = poison;
    EXPECT_THROW(service.submit(std::move(time)), InvalidArgument);
  }
  SweepRequest negative_time = f.request(0);
  negative_time.measured_time_at_max_s = -1.0;
  EXPECT_THROW(service.submit(std::move(negative_time)), InvalidArgument);

  for (const double poison : {kNan, kInf, 0.0, -900.0}) {
    SweepRequest grid = f.request(0);
    grid.frequencies = {510.0, poison, 1410.0};
    EXPECT_THROW(service.submit(std::move(grid)), InvalidArgument);
  }
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(service.stats().submitted, 0u);
}

TEST(ServeService, BoundsCustomGridsAtSubmit) {
  // A custom grid must lie within the spec's core clock range and hold at
  // most kMaxGridSize entries; a rejected request leaves no trace.
  Fixture f;
  SweepService service(f.holder, f.spec);
  const double lo = f.spec.core_min_mhz;
  const double hi = f.spec.core_max_mhz;
  const auto with_grid = [&](std::vector<double> grid) {
    SweepRequest r = f.request(0);
    r.frequencies = std::move(grid);
    return r;
  };

  const std::vector<double> at_cap(SweepService::kMaxGridSize, hi);
  for (const std::vector<double>& grid :
       {std::vector<double>{lo}, std::vector<double>{hi}, std::vector<double>{hi, 900.0, lo},
        at_cap}) {
    (void)service.submit(with_grid(grid));
  }
  EXPECT_EQ(service.pending(), 4u);
  EXPECT_EQ(service.drain_once(), 4u);
  const ServiceStats before = service.stats();

  const std::vector<double> over_cap(SweepService::kMaxGridSize + 1, hi);
  for (const std::vector<double>& grid : {std::vector<double>{900.0, lo - 1.0},
                                          std::vector<double>{hi + 1.0, 900.0}, over_cap}) {
    EXPECT_THROW(service.submit(with_grid(grid)), InvalidArgument);
  }
  EXPECT_EQ(service.pending(), 0u);
  EXPECT_EQ(service.stats().submitted, before.submitted);
}

TEST(ServeService, PoisonedSubmitLeavesHealthyNeighborsServed) {
  // A NaN counter is refused at the door with a typed error, so the
  // healthy requests submitted before and after it share a batch and
  // complete, whether drained explicitly or by the background worker.
  Fixture f;
  SweepRequest poisoned = f.request(2);
  poisoned.counters.dram_active = std::numeric_limits<double>::quiet_NaN();

  for (const bool background : {false, true}) {
    SCOPED_TRACE(background ? "background worker" : "drain_once");
    SweepService service(f.holder, f.spec);
    if (background) service.start();
    const SweepTicket before = service.submit(f.request(0));
    EXPECT_THROW(service.submit(poisoned), InvalidArgument);
    const SweepTicket after = service.submit(f.request(1));
    if (background) {
      service.stop();  // serves the backlog before joining
    } else {
      EXPECT_EQ(service.drain_once(), 2u);
    }
    const core::OnlinePredictor predictor(*f.models);
    core::SweepWorkspace ws;
    for (const auto& [ticket, app] : {std::pair{before, std::size_t{0}},
                                      std::pair{after, std::size_t{1}}}) {
      ASSERT_TRUE(ticket.done());
      predictor.predict_sweep(f.catalog[app].counters, f.catalog[app].measured_time_at_max_s,
                              f.spec, service.default_frequencies(), ws);
      const SweepOutcome& out = ticket.wait();
      ASSERT_EQ(out.energy_j.size(), ws.energy_j.size());
      for (std::size_t r = 0; r < ws.energy_j.size(); ++r)
        EXPECT_EQ(bits(out.energy_j[r]), bits(ws.energy_j[r]));
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
  }
}

}  // namespace
}  // namespace gpufreq::serve
