#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/core/sweep_cache.hpp"
#include "gpufreq/serve/request_queue.hpp"
#include "gpufreq/serve/snapshot.hpp"
#include "gpufreq/sim/gpu_spec.hpp"
#include "gpufreq/util/thread_annotations.hpp"

namespace gpufreq::serve {

/// Tuning knobs for SweepService.
struct ServiceConfig {
  /// Max requests fused into one batched sweep per drain. Requests in one
  /// batch with the same cache identity (SweepCurveCache::Probe: counter
  /// and t_max bits, grid bits, model epoch, backend and precision) are
  /// always coalesced: one item is computed or served from the cache, and
  /// its bitwise-equal curves are copied to the duplicates. Fleet nodes
  /// running the same app catalog submit such identical requests. In the
  /// opt-in quantized-key mode (cache.key_bits > 0) coalescing follows the
  /// quantized key, i.e. a duplicate gets the curve a later drain would
  /// serve it from the cache anyway.
  std::size_t max_batch = 128;
  /// Default frequency grid for requests that do not carry their own.
  /// Empty selects the GPU's used frequencies (the paper's 61 configs).
  /// Requests without a grid hold a view of this one; only custom grids
  /// are copied at submit.
  std::vector<double> frequencies;
  /// Inference precision for every drained batch (default: the session
  /// default, GPUFREQ_PRECISION). kInt8 requires the published snapshots'
  /// models to carry int8 packs (DnnModel::prepare_inference(kInt8));
  /// models without them silently run fp32 kernels.
  nn::Precision precision = nn::default_precision();
  /// Sweep-curve cache shape (core::SweepCacheConfig). The default keeps
  /// a 512-entry exact-key cache: repeat requests across drains skip the
  /// GEMM chain entirely and are served bitwise-identical curves.
  /// cache.sets = 0 disables memoization (in-batch coalescing stays on);
  /// cache.key_bits > 0 opts into the quantized-key mode (see
  /// SweepCacheConfig).
  core::SweepCacheConfig cache;
  /// Upper bound on the number of workspace shards a drain fans uncached
  /// unique items across on the deterministic thread pool. Each shard
  /// runs its slice through its own predict_sweep_batch, so per-item
  /// results stay bitwise identical to the serial single-workspace drain
  /// (the batch contract is row-local). 0 selects num_threads().
  std::size_t drain_shards = 0;
};

/// Monotonic service counters (snapshot via SweepService::stats()).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;        ///< drains that served >= 1 request
  std::uint64_t unique_items = 0;   ///< items actually occupying GEMM rows
  std::uint64_t coalesced = 0;      ///< requests served by result copy
  std::size_t max_batch_seen = 0;   ///< largest fused batch so far
  std::uint64_t model_epoch = 0;    ///< snapshot epoch of the latest drain
  std::uint64_t cache_hits = 0;       ///< unique items served from the curve cache
  std::uint64_t cache_misses = 0;     ///< unique items that ran the GEMM chain
  std::uint64_t cache_evictions = 0;  ///< valid cache entries overwritten
};

/// Multi-tenant frequency-selection service. Concurrent submitters enqueue
/// SweepRequests tagged with a WorkloadDescriptor; a drain (the background
/// worker started by start(), or explicit drain_once() calls) pops up to
/// max_batch requests in strict priority order, fuses them into one
/// N-item x per-item-grid batched sweep (single GEMM chain per model via
/// OnlinePredictor::predict_sweep_batch), and publishes per-request
/// outcomes that are bitwise identical to N independent predict_sweep
/// calls. Models are read through an epoch-cached snapshot, so a publish()
/// on the ModelSnapshotHolder hot-swaps models between batches without
/// ever blocking the drain on a reader lock in steady state.
///
/// Threading: submit()/stats()/pending() are safe from any thread.
/// drain_once() is internally serialized (drain_mutex_), so explicit
/// drains may race the background worker harmlessly. The drain loop is
/// allocation-free in steady state: every scratch container below is
/// high-water sized, outcome vectors are pre-reserved at submit, and a
/// model swap refresh is itself allocation-free.
class SweepService {
 public:
  SweepService(const ModelSnapshotHolder& models, sim::GpuSpec spec, ServiceConfig config = {});
  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Enqueue a request; returns immediately with a waitable ticket.
  /// Throws InvalidArgument, and enqueues nothing, unless all 12 counters
  /// and measured_time_at_max_s are finite, measured_time_at_max_s > 0,
  /// and every entry of a custom grid is finite and > 0.
  SweepTicket submit(SweepRequest request) GPUFREQ_EXCLUDES(mutex_);

  /// Serve one batch synchronously on the calling thread. Returns the
  /// number of requests completed (0 when the queue was empty).
  std::size_t drain_once() GPUFREQ_EXCLUDES(mutex_, drain_mutex_);

  /// Start/stop the background drain worker. stop() (and the destructor)
  /// serves every still-pending request before returning.
  void start();
  void stop();
  bool running() const { return worker_.joinable(); }

  std::size_t pending() const GPUFREQ_EXCLUDES(mutex_);
  ServiceStats stats() const GPUFREQ_EXCLUDES(mutex_);

  const sim::GpuSpec& spec() const { return spec_; }
  const std::vector<double>& default_frequencies() const { return config_.frequencies; }

 private:
  void worker_loop() GPUFREQ_EXCLUDES(mutex_, drain_mutex_);
  std::size_t drain_locked() GPUFREQ_REQUIRES(drain_mutex_) GPUFREQ_EXCLUDES(mutex_);

  const ModelSnapshotHolder& models_;
  const sim::GpuSpec spec_;
  const ServiceConfig config_;

  mutable Mutex mutex_;
  std::condition_variable cv_;  ///< signaled on submit and on stop
  PriorityRequestQueue queue_ GPUFREQ_GUARDED_BY(mutex_);
  ServiceStats stats_ GPUFREQ_GUARDED_BY(mutex_);
  bool stopping_ GPUFREQ_GUARDED_BY(mutex_) = false;

  // Drain scratch, reused across batches (see class comment).
  Mutex drain_mutex_;
  SnapshotCache snapshot_ GPUFREQ_GUARDED_BY(drain_mutex_);
  core::SweepCurveCache cache_ GPUFREQ_GUARDED_BY(drain_mutex_);
  std::vector<std::shared_ptr<detail::SweepSlot>> batch_ GPUFREQ_GUARDED_BY(drain_mutex_);
  std::vector<std::uint32_t> rep_ GPUFREQ_GUARDED_BY(drain_mutex_);      ///< request -> item
  std::vector<std::uint32_t> unique_ GPUFREQ_GUARDED_BY(drain_mutex_);   ///< item -> request
  std::vector<std::uint32_t> group_size_ GPUFREQ_GUARDED_BY(drain_mutex_);
  // Per unique item: its identity (also carried to the post-compute
  // insert), its curves (a cache hit view or a shard workspace slice), its
  // min-energy pick, and its miss ordinal into miss_items_.
  std::vector<core::SweepCurveCache::Probe> probes_ GPUFREQ_GUARDED_BY(drain_mutex_);
  std::vector<core::SweepCurveCache::LookupResult> curves_ GPUFREQ_GUARDED_BY(drain_mutex_);
  std::vector<double> picks_ GPUFREQ_GUARDED_BY(drain_mutex_);
  std::vector<std::uint32_t> miss_of_ GPUFREQ_GUARDED_BY(drain_mutex_);
  std::vector<core::BatchSweepItem> miss_items_ GPUFREQ_GUARDED_BY(drain_mutex_);
  // One workspace per drain shard; shard s computes miss items
  // [s * grain, (s + 1) * grain) of the current drain. Serial drains
  // (one shard) use shard_ws_[0], so the warmed high-water behavior is
  // unchanged from the single-workspace layout.
  std::size_t shard_count_ = 1;
  std::size_t shard_grain_ GPUFREQ_GUARDED_BY(drain_mutex_) = 0;
  std::vector<core::BatchSweepWorkspace> shard_ws_ GPUFREQ_GUARDED_BY(drain_mutex_);

  std::thread worker_;
};

}  // namespace gpufreq::serve
