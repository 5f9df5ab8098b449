#include "traffic.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <span>
#include <unordered_set>

#include "gpufreq/core/dataset.hpp"
#include "gpufreq/dcgm/collection.hpp"
#include "gpufreq/serve/load_generator.hpp"
#include "gpufreq/sim/gpu_device.hpp"
#include "gpufreq/workloads/registry.hpp"

namespace perfbench {

namespace {

using gpufreq::Rng;

static_assert(sizeof(gpufreq::sim::CounterSet) == 12 * sizeof(double),
              "CounterSet is compared and hashed as 12 packed doubles");

// The online phase's feature acquisition: one run at f_max, 8 samples.
gpufreq::dcgm::CollectionConfig at_max_config(const gpufreq::sim::GpuSpec& spec) {
  gpufreq::dcgm::CollectionConfig cc;
  cc.frequencies_mhz = {spec.default_core_mhz};
  cc.runs = 1;
  cc.samples_per_run = 8;
  return cc;
}

std::uint64_t hash_words(std::span<const std::uint64_t> words) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t w : words) h = Rng::hash_combine(h, w);
  return h;
}

}  // namespace

Traffic::Traffic(TrafficKind kind, std::uint64_t seed)
    : kind_(kind), seed_(seed), draws_(Rng::hash_combine(seed, 0xD3A75ULL)) {
  if (kind_ == TrafficKind::kRepeatFleet) {
    // The stored profiles: one profile_at_max per registry workload on one
    // device. Zipf ranks map to workloads through a seeded permutation.
    profile_next_device();
    Rng rank_rng(Rng::hash_combine(seed, 0x2A9FULL));
    rank_to_app_ = rank_rng.permutation(pending_.size());
    double total = 0.0;
    for (std::size_t r = 0; r < pending_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }
}

void Traffic::profile_next_device() {
  const std::uint64_t interval = device_index_ / kNodes;
  const std::uint64_t node = device_index_ % kNodes;
  ++device_index_;
  gpufreq::sim::GpuDevice device(
      gpufreq::sim::GpuSpec::ga100(),
      Rng::hash_combine(Rng::hash_combine(seed_, interval), node));
  const gpufreq::dcgm::ProfilingSession session(device, at_max_config(device.spec()));
  const auto& registry = gpufreq::workloads::all();
  pending_.clear();
  pending_pos_ = 0;
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const gpufreq::dcgm::CollectionResult result = session.profile_at_max(registry[i]);
    profile_s_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    ++profile_calls_;
    Request r;
    r.counters = result.runs.front().mean_counters;
    r.t_max_s = result.runs.front().exec_time_s;
    r.app = static_cast<std::uint32_t>(i);
    pending_.push_back(r);
  }
  // A node submits its workloads in no fixed order.
  Rng order(Rng::hash_combine(seed_, device_index_));
  const std::vector<std::size_t> perm = order.permutation(pending_.size());
  std::vector<Request> shuffled;
  shuffled.reserve(pending_.size());
  for (std::size_t i : perm) shuffled.push_back(pending_[i]);
  pending_ = std::move(shuffled);
}

Request Traffic::next() {
  Request r;
  if (kind_ == TrafficKind::kNoisyFleet) {
    if (pending_pos_ == pending_.size()) profile_next_device();
    r = pending_[pending_pos_++];
  } else {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), draws_.uniform()) -
        zipf_cdf_.begin());
    r = pending_[rank_to_app_[std::min(rank, rank_to_app_.size() - 1)]];
  }
  // Category mix of serve::LoadSpec's defaults; uniform band within it.
  static const gpufreq::serve::LoadSpec mix;
  const double u = draws_.uniform();
  using gpufreq::serve::WorkloadCategory;
  r.descriptor.category = u < mix.system_frac ? WorkloadCategory::kSystem
                          : u < mix.system_frac + mix.interactive_frac
                              ? WorkloadCategory::kInteractive
                              : WorkloadCategory::kBatch;
  r.descriptor.band =
      static_cast<int>(draws_.uniform_index(gpufreq::serve::kBandsPerCategory));
  return r;
}

bool same_bits(const Request& a, const Request& b) {
  return std::memcmp(&a.counters, &b.counters, sizeof a.counters) == 0 &&
         std::memcmp(&a.t_max_s, &b.t_max_s, sizeof a.t_max_s) == 0 &&
         a.descriptor.category == b.descriptor.category && a.descriptor.band == b.descriptor.band;
}

RepeatStats repeat_stats(const std::vector<Request>& requests) {
  RepeatStats stats;
  if (requests.empty()) return stats;
  const gpufreq::core::FeaturePlan plan(gpufreq::core::FeatureConfig{{"fp_active", "dram_active"}});
  std::unordered_set<std::uint64_t> exact_seen;
  std::unordered_set<std::uint64_t> feature_seen;
  std::size_t exact_repeats = 0;
  std::size_t feature_repeats = 0;
  // Hash-only membership: a 64-bit collision among ~1e5 keys is
  // negligible, and it could only overstate a share.
  for (const Request& r : requests) {
    std::uint64_t words[13];
    std::memcpy(words, &r.counters, sizeof r.counters);
    std::memcpy(&words[12], &r.t_max_s, sizeof r.t_max_s);
    if (!exact_seen.insert(hash_words(words)).second) ++exact_repeats;

    float row[2];
    plan.extract_into(r.counters, row);
    std::uint32_t bits[2];
    std::memcpy(bits, row, sizeof row);
    const std::uint64_t pair = (std::uint64_t{bits[0]} << 32) | bits[1];
    if (!feature_seen.insert(pair).second) ++feature_repeats;
  }
  const auto n = static_cast<double>(requests.size());
  stats.repeat_share = static_cast<double>(exact_repeats) / n;
  stats.feature_repeat_share = static_cast<double>(feature_repeats) / n;
  return stats;
}

}  // namespace perfbench
