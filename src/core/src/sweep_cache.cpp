#include "gpufreq/core/sweep_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "gpufreq/util/error.hpp"
#include "gpufreq/util/hot_path.hpp"

namespace gpufreq::core {

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One multiply-xorshift step per 64-bit word. The hash is only a filter
/// and a set index: every match is confirmed by a full key and grid
/// compare.
constexpr std::uint64_t kMixMul = 0x9e3779b97f4a7c15ull;

std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * kMixMul;
  return h ^ (h >> 32);
}

/// Bitwise equality of two equally long double arrays.
bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

std::uint64_t SweepCurveCache::quantize_bits(std::uint64_t bit_pattern, unsigned key_bits) {
  if (key_bits == 0 || key_bits >= 52) return bit_pattern;  // >= 52: full mantissa = exact
  // Keep the top key_bits mantissa bits, rounding to nearest. The add may
  // carry from the mantissa into the exponent field, which is exactly the
  // IEEE neighbor relation — the result is the nearest representable
  // double on the 2^-key_bits relative grid. Sign and exponent survive
  // untouched for values already on the grid (zero included).
  const unsigned shift = 52u - key_bits;
  const std::uint64_t half = 1ull << (shift - 1);
  const std::uint64_t mask = ~((1ull << shift) - 1ull);
  return (bit_pattern + half) & mask;
}

SweepCurveCache::SweepCurveCache(const SweepCacheConfig& config) {
  GPUFREQ_REQUIRE(config.key_bits <= 52, "SweepCurveCache: key_bits must be in [0, 52]");
  if (config.sets == 0 || config.ways == 0 || config.max_rows == 0) return;  // disabled
  sets_ = round_up_pow2(config.sets);
  ways_ = config.ways;
  max_rows_ = config.max_rows;
  key_bits_ = config.key_bits;
  // The whole footprint is allocated here, once: steady-state lookups and
  // inserts only ever index into these two arrays. Entries start invalid;
  // the slab is not filled, because nothing reads a row before insert()
  // writes it.
  entries_.resize(sets_ * ways_);
  slab_ = std::make_unique_for_overwrite<double[]>(sets_ * ways_ * kBands * max_rows_);
}

void SweepCurveCache::make_probe(const sim::CounterSet& counters, double measured_time_at_max_s,
                                 std::span<const double> grid, std::uint64_t epoch,
                                 std::uint64_t context, Probe& probe) const {
  static_assert(std::is_trivially_copyable_v<sim::CounterSet> &&
                    sizeof(sim::CounterSet) == 12 * sizeof(double),
                "the key copies CounterSet as exactly its 12 double fields");
  probe.cacheable = sets_ > 0 && !grid.empty() && grid.size() <= max_rows_;
  const unsigned key_bits = probe.cacheable ? key_bits_ : 0;

  // Key: the 12 counter bit patterns and t_max (both rounded in
  // quantized-key mode), then the exact model-identity words.
  std::uint64_t* k = probe.key;
  std::memcpy(k, &counters, sizeof counters);
  k[12] = bits(measured_time_at_max_s);
  if (key_bits != 0)
    for (std::size_t i = 0; i < 13; ++i) k[i] = quantize_bits(k[i], key_bits);
  k[13] = epoch;
  k[14] = context;

  // The grid enters the hash through a fingerprint (length, first, middle
  // and last element); every comparison still checks all of its bits.
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < kKeyWords; ++i) h = mix(h, k[i]);
  h = mix(h, static_cast<std::uint64_t>(grid.size()));
  if (!grid.empty()) {
    h = mix(h, bits(grid.front()));
    h = mix(h, bits(grid[grid.size() / 2]));
    h = mix(h, bits(grid.back()));
  }
  probe.hash = h;
  probe.set = sets_ > 0 ? static_cast<std::uint32_t>(h & (sets_ - 1)) : 0;
}

SweepCurveCache::LookupResult SweepCurveCache::find(const Probe& probe,
                                                    std::span<const double> grid) {
  if (!probe.cacheable) {
    ++stats_.misses;
    return {};
  }
  const std::size_t base = static_cast<std::size_t>(probe.set) * ways_;
  for (std::size_t w = 0; w < ways_; ++w) {
    Entry& e = entries_[base + w];
    if (!e.valid || e.hash != probe.hash || e.rows != grid.size() ||
        std::memcmp(e.key, probe.key, sizeof e.key) != 0 ||
        !same_bits(slab_.get() + band_offset(base + w, 0), grid.data(), grid.size()))
      continue;

    e.tick = ++tick_;
    ++stats_.hits;
    LookupResult r;
    r.hit = true;
    r.frequencies = {slab_.get() + band_offset(base + w, 1), e.rows};
    r.power_w = {slab_.get() + band_offset(base + w, 2), e.rows};
    r.time_s = {slab_.get() + band_offset(base + w, 3), e.rows};
    r.energy_j = {slab_.get() + band_offset(base + w, 4), e.rows};
    return r;
  }

  ++stats_.misses;
  return {};
}

SweepCurveCache::LookupResult SweepCurveCache::lookup(const sim::CounterSet& counters,
                                                      double measured_time_at_max_s,
                                                      std::span<const double> grid,
                                                      std::uint64_t epoch, std::uint64_t context,
                                                      Probe& probe) {
  GPUFREQ_HOT("gpufreq::core::SweepCurveCache::lookup");
  make_probe(counters, measured_time_at_max_s, grid, epoch, context, probe);
  return find(probe, grid);
}

bool SweepCurveCache::same_identity(const Probe& a, std::span<const double> grid_a,
                                    const Probe& b, std::span<const double> grid_b) {
  return a.hash == b.hash && grid_a.size() == grid_b.size() &&
         std::memcmp(a.key, b.key, sizeof a.key) == 0 &&
         (grid_a.data() == grid_b.data() ||
          same_bits(grid_a.data(), grid_b.data(), grid_a.size()));
}

void SweepCurveCache::insert(const Probe& probe, std::span<const double> grid,
                             std::span<const double> frequencies,
                             std::span<const double> power_w, std::span<const double> time_s,
                             std::span<const double> energy_j) {
  GPUFREQ_HOT("gpufreq::core::SweepCurveCache::insert");
  if (!probe.cacheable) return;
  const std::size_t rows = frequencies.size();
  if (rows == 0 || rows > max_rows_ || grid.size() != rows || power_w.size() != rows ||
      time_s.size() != rows || energy_j.size() != rows)
    return;

  // LRU victim within the probed set (an invalid way wins outright).
  const std::size_t base = static_cast<std::size_t>(probe.set) * ways_;
  std::size_t victim = base;
  for (std::size_t w = 0; w < ways_; ++w) {
    Entry& e = entries_[base + w];
    if (!e.valid) {
      victim = base + w;
      break;
    }
    if (e.tick < entries_[victim].tick) victim = base + w;
  }
  Entry& e = entries_[victim];
  if (e.valid) ++stats_.evictions;

  std::copy(probe.key, probe.key + kKeyWords, e.key);
  e.hash = probe.hash;
  e.rows = static_cast<std::uint32_t>(rows);
  e.tick = ++tick_;
  e.valid = true;
  std::copy(grid.begin(), grid.end(), slab_.get() + band_offset(victim, 0));
  std::copy(frequencies.begin(), frequencies.end(), slab_.get() + band_offset(victim, 1));
  std::copy(power_w.begin(), power_w.end(), slab_.get() + band_offset(victim, 2));
  std::copy(time_s.begin(), time_s.end(), slab_.get() + band_offset(victim, 3));
  std::copy(energy_j.begin(), energy_j.end(), slab_.get() + band_offset(victim, 4));
}

void SweepCurveCache::clear() {
  for (Entry& e : entries_) e.valid = false;
}

}  // namespace gpufreq::core
