#include "gpufreq/util/rng.hpp"

#include <cmath>
#include <numeric>

#include "gpufreq/util/error.hpp"

namespace gpufreq {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  GPUFREQ_REQUIRE(n > 0, "uniform_index: n must be positive");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586476925286766559;
  spare_ = mag * std::sin(two_pi * u2);
  has_spare_ = true;
  return mag * std::cos(two_pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal_jitter(double sigma) { return std::exp(normal(0.0, sigma)); }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  permutation(idx);
  return idx;
}

void Rng::permutation(std::span<std::size_t> out) {
  std::iota(out.begin(), out.end(), std::size_t{0});
  for (std::size_t i = out.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_index(i));
    std::swap(out[i - 1], out[j]);
  }
}

Rng Rng::fork(std::uint64_t label) const { return Rng(hash_combine(seed_, label)); }

std::uint64_t Rng::hash_combine(std::uint64_t a, std::uint64_t b) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t v : {a, b}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::uint64_t Rng::hash_string(const char* s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace gpufreq
