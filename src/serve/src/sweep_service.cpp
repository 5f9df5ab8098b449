#include "gpufreq/serve/sweep_service.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "gpufreq/nn/kernels/kernel_table.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/hot_path.hpp"
#include "gpufreq/util/stats.hpp"
#include "gpufreq/util/thread_pool.hpp"
#include "gpufreq/util/workspace.hpp"

namespace gpufreq::serve {

namespace {

/// True when all 12 counters and t_max are finite and t_max is positive.
bool valid_profile(const sim::CounterSet& counters, double measured_time_at_max_s) {
  for (auto id = static_cast<int>(sim::MetricId::kFp64Active);
       id <= static_cast<int>(sim::MetricId::kExecTime); ++id)
    if (!std::isfinite(counters.value(static_cast<sim::MetricId>(id)))) return false;
  return std::isfinite(measured_time_at_max_s) && measured_time_at_max_s > 0.0;
}

// Request slots are allocated at submit and are cold by the time a drain
// reaches them, so the two per-request loops of the drain prefetch the
// slot a few requests ahead: its inputs before the probe, its outcome
// buffers (for writing) before the publish copy.
constexpr std::size_t kProbeAhead = 4;
constexpr std::size_t kPublishAhead = 2;
constexpr std::size_t kCacheLine = 64;

void prefetch_request(const detail::SweepSlot& slot) {
  __builtin_prefetch(&slot.counters);
  __builtin_prefetch(&slot.counters.exec_time);
  __builtin_prefetch(&slot.frequencies);
}

void prefetch_outcome(const SweepOutcome& out) {
  for (const std::vector<double>* v :
       {&out.frequencies, &out.power_w, &out.time_s, &out.energy_j}) {
    const char* p = reinterpret_cast<const char*>(v->data());
    for (std::size_t b = 0; b < v->capacity() * sizeof(double); b += kCacheLine)
      __builtin_prefetch(p + b, 1);
  }
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void assign(std::vector<double>& dst, std::span<const double> src) {
  // Out-of-line so the (never-taken: outcomes are pre-reserved at submit)
  // growth path stays off the drain loop's static call graph.
  gpufreq::detail::workspace_assign(dst, src.data(), src.data() + src.size());
}

}  // namespace

SweepService::SweepService(const ModelSnapshotHolder& models, sim::GpuSpec spec,
                           ServiceConfig config)
    : models_(models),
      spec_(std::move(spec)),
      config_([&] {
        ServiceConfig c = std::move(config);
        GPUFREQ_REQUIRE(c.max_batch > 0, "SweepService: max_batch must be positive");
        if (c.frequencies.empty()) c.frequencies = spec_.used_frequencies();
        GPUFREQ_REQUIRE(!c.frequencies.empty(), "SweepService: empty default frequency grid");
        return c;
      }()),
      cache_(config_.cache) {
  batch_.reserve(config_.max_batch);
  rep_.reserve(config_.max_batch);
  unique_.reserve(config_.max_batch);
  group_size_.reserve(config_.max_batch);
  probes_.reserve(config_.max_batch);
  curves_.reserve(config_.max_batch);
  picks_.reserve(config_.max_batch);
  miss_of_.reserve(config_.max_batch);
  miss_items_.reserve(config_.max_batch);
  shard_count_ = config_.drain_shards != 0 ? config_.drain_shards : num_threads();
  shard_count_ = std::clamp<std::size_t>(shard_count_, 1, config_.max_batch);
  shard_ws_.resize(shard_count_);
}

SweepService::~SweepService() { stop(); }

SweepTicket SweepService::submit(SweepRequest request) {
  GPUFREQ_REQUIRE(valid_profile(request.counters, request.measured_time_at_max_s),
                  "SweepService: counters and measured time must be finite, and the measured "
                  "time positive");
  GPUFREQ_REQUIRE(std::all_of(request.frequencies.begin(), request.frequencies.end(),
                              [](double f) { return std::isfinite(f) && f > 0.0; }),
                  "SweepService: grid frequencies must be finite and positive");
  auto slot = std::make_shared<detail::SweepSlot>();
  slot->descriptor = request.descriptor;
  (void)slot->descriptor.priority();  // validates the band range
  slot->counters = request.counters;
  slot->measured_time_at_max_s = request.measured_time_at_max_s;
  if (request.frequencies.empty()) {
    slot->frequencies = config_.frequencies;
  } else {
    slot->custom_frequencies = std::move(request.frequencies);
    slot->frequencies = slot->custom_frequencies;
  }
  // Pre-size the outcome so the drain loop's result copies never allocate.
  const std::size_t rows = slot->frequencies.size();
  slot->outcome.frequencies.reserve(rows);
  slot->outcome.power_w.reserve(rows);
  slot->outcome.time_s.reserve(rows);
  slot->outcome.energy_j.reserve(rows);
  slot->enqueued_at = std::chrono::steady_clock::now();

  {
    MutexGuard lock(mutex_);
    GPUFREQ_REQUIRE(!stopping_, "SweepService: submit after stop");
    queue_.push(slot);
    ++stats_.submitted;
  }
  cv_.notify_one();
  return SweepTicket(std::move(slot));
}

std::size_t SweepService::drain_once() {
  MutexGuard drain(drain_mutex_);
  return drain_locked();
}

std::size_t SweepService::drain_locked() {
  GPUFREQ_HOT("gpufreq::serve::SweepService::drain_locked");
  batch_.clear();
  {
    MutexGuard lock(mutex_);
    while (batch_.size() < config_.max_batch && !queue_.empty())
      gpufreq::detail::workspace_push(batch_, queue_.pop());
  }
  if (batch_.empty()) return 0;
  const auto picked_up = std::chrono::steady_clock::now();

  // Epoch-cached snapshot: one atomic load unless a publish() happened.
  const core::OnlinePredictor& predictor = snapshot_.predictor(models_, config_.precision);
  const std::uint64_t epoch = snapshot_.epoch();
  // Cache identity context: the active kernel table pins the backend (its
  // address changes iff set_kernel_backend swaps tables; tables are >= 8
  // aligned so the low bits are free for the precision tag). Folded into
  // every key, so a backend or precision change can never serve a curve
  // computed under a different numeric contract.
  const std::uint64_t context =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&nn::kernels::active())) |
      (static_cast<std::uint64_t>(config_.precision) & 0x3u);
  const bool use_cache = cache_.enabled();

  // One identity per request: its cache probe, derived once here (cache
  // on or off). Requests group in submission order by that probe (hash,
  // then key words, then grid bits), and each unique item probes the
  // curve cache once. A hit is held as a view into the cache: no insert
  // runs until every outcome has been copied out below.
  rep_.clear();
  unique_.clear();
  group_size_.clear();
  probes_.clear();
  curves_.clear();
  picks_.clear();
  miss_of_.clear();
  miss_items_.clear();
  core::SweepCurveCache::Probe probe;
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    detail::SweepSlot& slot = *batch_[i];
    if (i + kProbeAhead < batch_.size()) prefetch_request(*batch_[i + kProbeAhead]);
    cache_.make_probe(slot.counters, slot.measured_time_at_max_s, slot.frequencies, epoch,
                      context, probe);
    std::size_t u = 0;  // the hash test inline skips the call for most non-matches
    while (u < unique_.size() &&
           (probes_[u].hash != probe.hash ||
            !core::SweepCurveCache::same_identity(probes_[u], batch_[unique_[u]]->frequencies,
                                                  probe, slot.frequencies)))
      ++u;
    gpufreq::detail::workspace_push(rep_, static_cast<std::uint32_t>(u));
    if (u != unique_.size()) {
      ++group_size_[u];
      continue;
    }
    gpufreq::detail::workspace_push(unique_, static_cast<std::uint32_t>(i));
    gpufreq::detail::workspace_push(group_size_, std::uint32_t{1});
    gpufreq::detail::workspace_push(probes_, probe);
    gpufreq::detail::workspace_push(curves_, core::SweepCurveCache::LookupResult{});
    gpufreq::detail::workspace_push(picks_, 0.0);
    gpufreq::detail::workspace_push(miss_of_, std::uint32_t{0});
    if (use_cache) {
      curves_.back() = cache_.find(probe, slot.frequencies);
      if (curves_.back().hit) continue;
    }
    miss_of_.back() = static_cast<std::uint32_t>(miss_items_.size());
    gpufreq::detail::workspace_push(
        miss_items_, core::BatchSweepItem{.counters = &slot.counters,
                                          .measured_time_at_max_s = slot.measured_time_at_max_s,
                                          .frequencies = slot.frequencies});
  }

  // The fused sweep over everything the cache could not answer, sharded
  // across the deterministic pool: shard s computes miss items
  // [s*grain, (s+1)*grain) into its own workspace. Every per-item slice
  // is bitwise identical to an independent predict_sweep (the batch
  // contract is row-local), so any shard partition — including the serial
  // one-shard case — produces identical outcomes.
  const std::size_t n_miss = miss_items_.size();
  if (n_miss > 0) {
    const std::size_t shards = std::min(shard_count_, n_miss);
    shard_grain_ = (n_miss + shards - 1) / shards;
    const std::size_t grain = shard_grain_;
    parallel_for(0, n_miss, grain, [&](std::size_t lo, std::size_t hi) {
      predictor.predict_sweep_batch(
          std::span<const core::BatchSweepItem>(miss_items_.data() + lo, hi - lo), spec_,
          shard_ws_[lo / grain]);
    });
  }
  // Every unique item's curves, from the cache or its shard workspace, and
  // its min-energy pick, once per item.
  for (std::size_t u = 0; u < unique_.size(); ++u) {
    core::SweepCurveCache::LookupResult& c = curves_[u];
    if (!c.hit) {
      const std::size_t m = miss_of_[u];
      const core::BatchSweepWorkspace& sws = shard_ws_[m / shard_grain_];
      const std::size_t local = m % shard_grain_;
      c.frequencies = sws.item_frequencies(local);
      c.power_w = sws.item_power(local);
      c.time_s = sws.item_time(local);
      c.energy_j = sws.item_energy(local);
    }
    picks_[u] = c.frequencies[stats::argmin(c.energy_j)];
  }

  // Publish every outcome straight from its source, while the hit views
  // are still valid.
  const auto completed = std::chrono::steady_clock::now();
  const std::size_t served = batch_.size();
  for (std::size_t i = 0; i < served; ++i) {
    detail::SweepSlot& slot = *batch_[i];
    if (i + kPublishAhead < served) prefetch_outcome(batch_[i + kPublishAhead]->outcome);
    const std::size_t u = rep_[i];
    const core::SweepCurveCache::LookupResult& c = curves_[u];
    SweepOutcome& out = slot.outcome;
    assign(out.frequencies, c.frequencies);
    assign(out.power_w, c.power_w);
    assign(out.time_s, c.time_s);
    assign(out.energy_j, c.energy_j);
    out.min_energy_frequency_mhz = picks_[u];
    out.queue_latency_s = seconds_between(slot.enqueued_at, picked_up);
    out.total_latency_s = seconds_between(slot.enqueued_at, completed);
    out.batch_size = served;
    out.model_epoch = epoch;
    out.coalesced = group_size_[u] > 1;
    out.cache_hit = c.hit;
  }
  // Now the misses may enter the cache (an insert can evict a way this
  // drain hit; nothing reads those views any more).
  if (use_cache) {
    for (std::size_t u = 0; u < unique_.size(); ++u) {
      const core::SweepCurveCache::LookupResult& c = curves_[u];
      if (c.hit) continue;
      cache_.insert(probes_[u], batch_[unique_[u]]->frequencies, c.frequencies, c.power_w,
                    c.time_s, c.energy_j);
    }
  }

  // Account the batch BEFORE flipping any slot's done bit: a waiter that
  // observes its completion must already see it reflected in stats().
  {
    MutexGuard lock(mutex_);
    stats_.completed += served;
    ++stats_.batches;
    stats_.unique_items += unique_.size();
    stats_.coalesced += served - unique_.size();
    stats_.max_batch_seen = std::max(stats_.max_batch_seen, served);
    stats_.model_epoch = epoch;
    stats_.cache_hits = cache_.stats().hits;
    stats_.cache_misses = cache_.stats().misses;
    stats_.cache_evictions = cache_.stats().evictions;
  }
  for (const std::shared_ptr<detail::SweepSlot>& pin : batch_) {
    detail::SweepSlot& slot = *pin;
    {
      MutexGuard lock(slot.mutex);
      slot.done = true;
    }
    slot.cv.notify_all();
  }

  batch_.clear();  // drop slot pins promptly (tickets keep theirs)
  return served;
}

void SweepService::start() {
  GPUFREQ_REQUIRE(!worker_.joinable(), "SweepService: already started");
  {
    MutexGuard lock(mutex_);
    stopping_ = false;
  }
  worker_ = std::thread([this] { worker_loop(); });
}

void SweepService::stop() {
  if (!worker_.joinable()) return;
  {
    MutexGuard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void SweepService::worker_loop() {
  for (;;) {
    {
      MutexLock lock(mutex_);
      cv_.wait(lock.native(), [this] {
        mutex_.assert_held();
        return stopping_ || !queue_.empty();
      });
      if (stopping_ && queue_.empty()) return;
    }
    drain_once();
  }
}

std::size_t SweepService::pending() const {
  MutexGuard lock(mutex_);
  return queue_.size();
}

ServiceStats SweepService::stats() const {
  MutexGuard lock(mutex_);
  return stats_;
}

}  // namespace gpufreq::serve
