#pragma once

// Request streams for the serve phase of every benchmark workload. A stream
// is a pure function of its seed; the service only ever sees the
// SweepRequests built from it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpufreq/serve/request_queue.hpp"
#include "gpufreq/sim/counters.hpp"
#include "gpufreq/util/rng.hpp"

namespace perfbench {

/// One generated request plus the benchmark's bookkeeping about it.
struct Request {
  gpufreq::serve::WorkloadDescriptor descriptor;
  gpufreq::sim::CounterSet counters;  ///< profile_at_max run-mean counters
  double t_max_s = 0.0;               ///< profile_at_max wall time
  std::uint32_t app = 0;              ///< registry index of the workload
};

enum class TrafficKind {
  /// Every registry workload re-profiled on a differently seeded GA100 per
  /// (node, control interval): counters carry measurement noise, so no
  /// request repeats an earlier one.
  kNoisyFleet,
  /// One stored profile per registry workload, re-submitted with Zipf(1.1)
  /// popularity (the cluster-advisor pattern of re-querying one run).
  kRepeatFleet,
};

class Traffic {
 public:
  static constexpr std::size_t kNodes = 64;
  static constexpr double kZipfS = 1.1;

  Traffic(TrafficKind kind, std::uint64_t seed);

  /// Next request of the stream.
  Request next();

  /// Wall time spent inside dcgm::ProfilingSession::profile_at_max so far,
  /// and how many calls it took.
  double profile_seconds() const { return profile_s_; }
  std::size_t profiles() const { return profile_calls_; }

 private:
  void profile_next_device();

  TrafficKind kind_;
  std::uint64_t seed_;
  gpufreq::Rng draws_;  ///< categories, bands and Zipf ranks
  std::vector<Request> pending_;
  std::size_t pending_pos_ = 0;
  std::uint64_t device_index_ = 0;  ///< interval * kNodes + node
  std::vector<double> zipf_cdf_;
  std::vector<std::size_t> rank_to_app_;
  double profile_s_ = 0.0;
  std::size_t profile_calls_ = 0;
};

/// Exact-repeat statistics of a request sequence.
struct RepeatStats {
  /// Share of requests whose counters and t_max are bit-identical to an
  /// earlier request's (what the exact-key sweep-curve cache can hit).
  double repeat_share = 0.0;
  /// Share whose float32 (fp_active, dram_active) model-input pair repeats
  /// an earlier request's (what a key on the model's input could hit).
  double feature_repeat_share = 0.0;
};

RepeatStats repeat_stats(const std::vector<Request>& requests);

/// True when both requests carry the same bits in every field the service
/// reads.
bool same_bits(const Request& a, const Request& b);

}  // namespace perfbench
