#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gpufreq/sim/counters.hpp"

namespace gpufreq::core {

/// Shape and keying mode of a SweepCurveCache.
struct SweepCacheConfig {
  /// Number of sets (rounded up to a power of two; 0 disables the cache).
  std::size_t sets = 128;
  /// Entries per set, scanned linearly; LRU victim on insert.
  std::size_t ways = 4;
  /// Longest cacheable curve. Requests whose grid exceeds this bypass the
  /// cache entirely (counted as misses, never inserted). The default
  /// comfortably covers the paper's 61-configuration grid.
  std::size_t max_rows = 96;
  /// 0 keys on the exact bit patterns of the counters and t_max (hits are
  /// bitwise-identical to recompute by construction). A value in [1, 52]
  /// opts into quantized keys: counters and t_max are rounded to a
  /// relative grid of spacing 2^-key_bits before keying, so requests whose
  /// inputs differ by less than the cell width share an entry and are
  /// served the first-seen member's curve. That approximation is gated by
  /// the EDP-equivalence methodology (tools/check_quantization
  /// --key-study): strict argmin agreement or fp32-EDP regret <= 0.5%
  /// over the 27x61 grid. The frequency grid is always keyed exactly.
  unsigned key_bits = 0;
};

/// Monotonic cache counters (read via SweepCurveCache::stats()).
struct SweepCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      ///< includes bypasses (grid > max_rows)
  std::uint64_t evictions = 0;   ///< valid entries overwritten on insert
};

/// Fixed-capacity, set-associative memo of full P(f)/T(f)/E(f) sweep
/// curves, keyed on the exact bits of (counter vector, t_max, frequency
/// grid, model epoch, kernel backend). A hit returns the cached curve
/// without touching the GEMM chain; because the serving pipeline is
/// deterministic, an exact-key hit is bitwise-identical to recomputing.
///
/// A request's identity is its Probe: 15 key words plus a word hash that
/// also mixes in a grid fingerprint (length, first, middle and last
/// element). make_probe() derives it; find() scans the probed set,
/// comparing the stored hash, then the key words, then every grid bit, so
/// neither a hash collision nor a fingerprint collision can serve a wrong
/// curve. same_identity() applies the same full compare to two probes;
/// the sweep service dedupes each drain batch with it, so in-batch
/// coalescing and the cross-drain cache share one key.
///
/// Epoch and backend are folded into the key (two opaque context
/// words supplied by the caller), so a model hot-swap invalidates the
/// whole cache wholesale simply by never matching stale entries again;
/// stale curves age out via LRU replacement without any flush walk.
///
/// All storage — one flat double slab plus a metadata array — is allocated
/// at construction; lookup() and insert() never allocate, lock, or throw,
/// and both are GPUFREQ_HOT roots of the static purity and resource-bound
/// proofs. NOT internally synchronized: callers serialize access (the
/// sweep service uses it under its drain mutex).
class SweepCurveCache {
 public:
  /// Number of key words: 12 counters + t_max + epoch + backend.
  static constexpr std::size_t kKeyWords = 15;

  /// A request's identity, derived once by make_probe() and carried from
  /// a lookup miss to the insert of the freshly computed curve.
  struct Probe {
    std::uint64_t key[kKeyWords] = {};
    std::uint64_t hash = 0;  ///< word hash of the key and the grid fingerprint
    std::uint32_t set = 0;
    bool cacheable = false;  ///< false: grid empty or too long, or cache disabled
  };

  /// Borrowed view of a cached curve. Valid until the next insert() or
  /// clear() on this cache.
  struct LookupResult {
    bool hit = false;
    std::span<const double> frequencies;  ///< ascending MHz (sorted grid)
    std::span<const double> power_w;
    std::span<const double> time_s;
    std::span<const double> energy_j;
  };

  explicit SweepCurveCache(const SweepCacheConfig& config = {});

  bool enabled() const { return sets_ > 0; }
  std::size_t sets() const { return sets_; }
  std::size_t ways() const { return ways_; }
  std::size_t max_rows() const { return max_rows_; }
  unsigned key_bits() const { return key_bits_; }
  /// Total entry capacity (sets * ways).
  std::size_t capacity() const { return sets_ * ways_; }

  /// Derive the identity of (counters, t_max, grid) under the caller's
  /// (epoch, context) words. `grid` is the request's frequency list in
  /// submitted order. Works on a disabled cache too (cacheable = false).
  /// Quantized-key rounding applies only to cacheable probes, so a request
  /// that bypasses the cache is always identified by its exact bits.
  /// Touches neither the sets nor the stats; never allocates.
  void make_probe(const sim::CounterSet& counters, double measured_time_at_max_s,
                  std::span<const double> grid, std::uint64_t epoch, std::uint64_t context,
                  Probe& probe) const;

  /// Scan the probed set for `probe`, made by make_probe() from this same
  /// `grid`: stored hash first, then the key words, then the full grid bit
  /// compare. Counts a hit or a miss. Never allocates.
  LookupResult find(const Probe& probe, std::span<const double> grid);

  /// make_probe() then find(). Fills `probe` for a follow-up insert() on
  /// miss. Never allocates.
  LookupResult lookup(const sim::CounterSet& counters, double measured_time_at_max_s,
                      std::span<const double> grid, std::uint64_t epoch, std::uint64_t context,
                      Probe& probe);

  /// True when two probes name the same computation: equal hash, key words
  /// and grid bits. Grids that share a data pointer are equal without a
  /// compare.
  static bool same_identity(const Probe& a, std::span<const double> grid_a, const Probe& b,
                            std::span<const double> grid_b);

  /// Install the computed curve for a missed probe (LRU victim within the
  /// probed set; overwriting a valid entry counts as an eviction). The
  /// four curve spans must share one length <= max_rows() and `grid` must
  /// be the exact list lookup() was probed with. No-op for a
  /// non-cacheable probe. Never allocates.
  void insert(const Probe& probe, std::span<const double> grid,
              std::span<const double> frequencies, std::span<const double> power_w,
              std::span<const double> time_s, std::span<const double> energy_j);

  /// Drop every entry (testing / explicit reset; epoch keying already
  /// handles model swaps). Does not reset stats.
  void clear();

  const SweepCacheStats& stats() const { return stats_; }

  /// Round a double's bit pattern to the relative 2^-key_bits grid
  /// (identity for key_bits == 0). Pure integer math on the IEEE-754
  /// representation: round-to-nearest in the low mantissa bits with the
  /// carry propagating naturally into the exponent. Exposed for the
  /// quantized-key equivalence study in tools/check_quantization.
  static std::uint64_t quantize_bits(std::uint64_t bit_pattern, unsigned key_bits);

 private:
  struct Entry {
    std::uint64_t key[kKeyWords] = {};
    std::uint64_t hash = 0;
    std::uint64_t tick = 0;   ///< LRU stamp (updated on hit and insert)
    std::uint32_t rows = 0;
    bool valid = false;
  };

  /// Slab offset of entry `index`'s band `band` (0 = keyed grid, 1 =
  /// sorted frequencies, 2 = power, 3 = time, 4 = energy).
  std::size_t band_offset(std::size_t index, std::size_t band) const {
    return (index * kBands + band) * max_rows_;
  }

  static constexpr std::size_t kBands = 5;

  std::size_t sets_ = 0;   ///< power of two (0 when disabled)
  std::size_t ways_ = 0;
  std::size_t max_rows_ = 0;
  unsigned key_bits_ = 0;

  std::vector<Entry> entries_;  ///< sets * ways, set-major
  std::vector<double> slab_;    ///< entries * kBands * max_rows doubles
  std::uint64_t tick_ = 0;
  SweepCacheStats stats_;
};

}  // namespace gpufreq::core
