#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gpufreq/serve/workload_descriptor.hpp"
#include "gpufreq/sim/counters.hpp"
#include "gpufreq/util/thread_annotations.hpp"

namespace gpufreq::serve {

/// A "pick a frequency for this application" request: the application's
/// max-frequency counter snapshot and wall time (the online phase's single
/// measured execution) plus its scheduling tag.
struct SweepRequest {
  WorkloadDescriptor descriptor;
  sim::CounterSet counters;             ///< counters measured at f_max
  double measured_time_at_max_s = 0.0;  ///< wall time of that execution
  /// Frequency grid to sweep (any order; the service sorts ascending).
  /// Empty means "use the service's default grid"; otherwise every entry
  /// must be finite and > 0 (SweepService::submit rejects the request).
  std::vector<double> frequencies;
};

/// Completed sweep results plus service-side observability for one request.
/// The per-config curves are bitwise identical to what an independent
/// OnlinePredictor::predict_sweep of the same request would produce.
struct SweepOutcome {
  std::vector<double> frequencies;  ///< ascending MHz
  std::vector<double> power_w;      ///< clamped board power per config
  std::vector<double> time_s;       ///< clamped execution time per config
  std::vector<double> energy_j;     ///< power * time (Equation 8)

  /// The service's pick: the grid frequency minimizing predicted energy.
  double min_energy_frequency_mhz = 0.0;

  double queue_latency_s = 0.0;  ///< enqueue -> drain pickup
  double total_latency_s = 0.0;  ///< enqueue -> results published
  std::size_t batch_size = 0;    ///< requests fused in the serving drain
  std::uint64_t model_epoch = 0; ///< snapshot epoch that served the request
  /// True when the request shared a computation with a bit-identical
  /// request in the same batch instead of occupying its own GEMM rows.
  bool coalesced = false;
  /// True when the curves came from the sweep-curve cache (a prior
  /// drain's computation at the same model epoch) instead of a fresh
  /// GEMM chain. Exact-key hits are bitwise-identical to recompute.
  bool cache_hit = false;
};

namespace detail {

/// Shared state between a submitter and the drain thread. The request
/// fields are immutable once enqueued; `outcome` is written by the drain
/// thread strictly before `done` flips under `mutex`, so any reader that
/// observed done == true may read it without further synchronization.
struct SweepSlot {
  // --- immutable after submit -----------------------------------------
  WorkloadDescriptor descriptor;
  sim::CounterSet counters;
  double measured_time_at_max_s = 0.0;
  /// The grid to sweep, as submitted: a view of custom_frequencies, or of
  /// the service-owned default grid when the request carried none (the
  /// drain only reads it while the service is alive).
  std::span<const double> frequencies;
  std::vector<double> custom_frequencies;  ///< owned copy of a request's own grid
  std::uint64_t sequence = 0;              ///< FIFO tiebreak within a band
  std::chrono::steady_clock::time_point enqueued_at{};

  // --- completion handshake -------------------------------------------
  Mutex mutex;
  std::condition_variable cv;
  bool done GPUFREQ_GUARDED_BY(mutex) = false;
  SweepOutcome outcome;  ///< published by the done flip (see above)
};

}  // namespace detail

/// Handle returned by SweepService::submit. Cheap to copy; outlives the
/// service's interest in the request (the slot is shared).
class SweepTicket {
 public:
  SweepTicket() = default;

  bool valid() const { return slot_ != nullptr; }

  /// Non-blocking completion poll.
  bool done() const;

  /// Block until the request completes, then return its results. The
  /// reference stays valid for the lifetime of this ticket (or any copy).
  const SweepOutcome& wait() const;

  /// Scheduling tag the request was submitted with.
  const WorkloadDescriptor& descriptor() const;

 private:
  friend class SweepService;
  explicit SweepTicket(std::shared_ptr<detail::SweepSlot> slot) : slot_(std::move(slot)) {}

  std::shared_ptr<detail::SweepSlot> slot_;
};

/// Priority-banded FIFO of pending sweep requests. Requests are bucketed
/// by WorkloadDescriptor::band_index(); pop() serves the highest non-empty
/// band, FIFO within the band (sequence numbers assigned at push). This is
/// the banded equivalent of ordering by the composed integer priority with
/// an enqueue-sequence tiebreak, with O(#bands) worst-case pop and no
/// comparison heap.
///
/// NOT internally synchronized: SweepService accesses it under its own
/// mutex (the member is GPUFREQ_GUARDED_BY there).
class PriorityRequestQueue {
 public:
  PriorityRequestQueue();

  /// Enqueue; assigns the slot's FIFO sequence number. Amortized
  /// allocation-free: each band's ring only reallocates when it outgrows
  /// its high-water capacity.
  void push(std::shared_ptr<detail::SweepSlot> slot);

  /// Dequeue the highest-priority pending request (nullptr when empty).
  /// Never allocates.
  std::shared_ptr<detail::SweepSlot> pop();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pending requests in one strict-priority band (band_index order).
  std::size_t band_size(std::size_t band_index) const;

  static constexpr std::size_t band_count() {
    return kWorkloadCategories * static_cast<std::size_t>(kBandsPerCategory);
  }

 private:
  /// Power-of-two ring buffer; grows by doubling, pops never free.
  struct Ring {
    std::vector<std::shared_ptr<detail::SweepSlot>> slots;
    std::size_t head = 0;
    std::size_t count = 0;
  };

  static void grow(Ring& ring);

  std::vector<Ring> bands_;  ///< index = WorkloadDescriptor::band_index()
  std::uint64_t next_sequence_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gpufreq::serve
