#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gpufreq {

/// Deterministic, portable pseudo-random number generator (xoshiro256**)
/// seeded via splitmix64. Every stochastic component of the library takes an
/// explicit Rng (or a seed) so that simulations, dataset generation, and
/// model training are exactly reproducible across runs and platforms.
class Rng {
 public:
  /// Construct from a 64-bit seed; the seed is expanded with splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal deviate (Box–Muller, cached spare).
  double normal();

  /// Normal deviate with the given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal multiplicative jitter: exp(normal(0, sigma)). Useful for
  /// strictly-positive measurement noise.
  double lognormal_jitter(double sigma);

  /// Fisher–Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// The same permutation of [0, out.size()) written into `out`, with no
  /// allocation.
  void permutation(std::span<std::size_t> out);

  /// Derive an independent child generator (stable given the same label).
  /// Used to give each (workload, frequency, run) its own stream so adding
  /// a workload does not perturb the noise of the others.
  Rng fork(std::uint64_t label) const;

  /// Combine values into a single stable 64-bit hash (FNV-1a over words).
  static std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

  /// Stable 64-bit hash of a string (FNV-1a).
  static std::uint64_t hash_string(const char* s);

 private:
  std::uint64_t state_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
  std::uint64_t seed_;  // retained for fork()
};

}  // namespace gpufreq
