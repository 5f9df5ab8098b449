#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "gpufreq/core/models.hpp"
#include "gpufreq/core/pipeline.hpp"
#include "gpufreq/util/thread_annotations.hpp"

namespace gpufreq::serve {

/// Epoch-stamped holder of the current power/time model pair, for hot
/// model swaps under load.
///
/// Swap protocol: publish() installs a new immutable snapshot under the
/// mutex, then bumps the epoch with release ordering. Readers go through a
/// per-thread SnapshotCache whose steady-state fast path is ONE acquire
/// load of the epoch — no lock, no reference-count traffic. Only when the
/// epoch differs from the cached one does a reader briefly take the mutex
/// to copy the shared_ptr (pinning the new snapshot) and rebuild its
/// predictor. In-flight work keeps using the snapshot it pinned; the old
/// models are destroyed when the last pin drops.
class ModelSnapshotHolder {
 public:
  /// Requires trained power and time models.
  explicit ModelSnapshotHolder(std::shared_ptr<const core::PowerTimeModels> initial);

  ModelSnapshotHolder(const ModelSnapshotHolder&) = delete;
  ModelSnapshotHolder& operator=(const ModelSnapshotHolder&) = delete;

  /// Atomically replace the current snapshot (requires trained models).
  /// Readers observe the change on their next epoch check.
  void publish(std::shared_ptr<const core::PowerTimeModels> next) GPUFREQ_EXCLUDES(mutex_);

  /// Pin and return the current snapshot (locks; prefer SnapshotCache on
  /// hot paths).
  std::shared_ptr<const core::PowerTimeModels> snapshot() const GPUFREQ_EXCLUDES(mutex_);

  /// Monotonic publication counter; starts at 0 for the initial snapshot.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  friend class SnapshotCache;

  mutable Mutex mutex_;
  std::shared_ptr<const core::PowerTimeModels> current_ GPUFREQ_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> epoch_{0};
};

/// Per-reader-thread cache of a pinned snapshot plus the OnlinePredictor
/// built over it. NOT thread-safe — one instance per reader thread. The
/// refresh path itself is allocation-free (shared_ptr copy + predictor
/// rebuild), so a model swap never perturbs a zero-allocation drain loop.
class SnapshotCache {
 public:
  /// Predictor over the holder's current snapshot. Steady state (epoch
  /// unchanged): a single atomic load, wait-free; a publish rebuilds the
  /// predictor. The reference is valid until the next predictor() call on
  /// this cache.
  const core::OnlinePredictor& predictor(const ModelSnapshotHolder& holder);

  /// The models backing the last predictor() result (requires one).
  const core::PowerTimeModels& models() const;

  /// Epoch of the pinned snapshot (~0 when nothing is pinned yet).
  std::uint64_t epoch() const { return epoch_; }

 private:
  /// Cold refresh: pin the holder's current snapshot and rebuild the
  /// predictor. Out-of-line so predictor()'s steady-state fast path stays
  /// free of lock/refcount code (see the hot-path purity contract,
  /// DESIGN.md §8).
  void refresh(const ModelSnapshotHolder& holder);

  std::shared_ptr<const core::PowerTimeModels> pinned_;
  std::optional<core::OnlinePredictor> predictor_;
  std::uint64_t epoch_ = ~std::uint64_t{0};
};

}  // namespace gpufreq::serve
