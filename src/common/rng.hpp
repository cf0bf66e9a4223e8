// Deterministic, seedable random number generation.
//
// All stochastic behaviour in the library (synthetic weights, synthetic
// inputs, RL initialization, exploration noise) flows through Rng so that
// every experiment is reproducible from a single 64-bit seed.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded via SplitMix64.
// It is small, fast, and has no global state.
#pragma once

#include <cstdint>
#include <limits>

namespace autohet::common {

/// SplitMix64 step: used to expand a single seed into generator state and to
/// derive independent child seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator.
///
/// Satisfies the UniformRandomBitGenerator named requirement so it can be
/// used with <random> distributions, though the convenience members below
/// cover every use in this library.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x243f6a8885a308d3ULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
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

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// The integer k in [0, 2^53) such that uniform() would have returned
  /// k·2⁻⁵³. Lets hot loops compare against a precomputed integer threshold
  /// instead of materializing the double, while consuming the stream
  /// identically to uniform().
  std::uint64_t uniform_bits53() noexcept { return (*this)() >> 11; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t uniform_u64(std::uint64_t n) noexcept {
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_u64(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Standard normal via Marsaglia polar method (cached second deviate).
  double normal() noexcept {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = sqrt_neg2log(s);
    cached_ = v * m;
    has_cached_ = true;
    return u * m;
  }

  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Derive an independent child generator; distinct streams for distinct
  /// (seed, stream) pairs.
  Rng child(std::uint64_t stream) const noexcept {
    std::uint64_t sm = state_[0] ^ (stream * 0x9e3779b97f4a7c15ULL);
    Rng out(splitmix64(sm));
    return out;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  // sqrt(-2 ln(s) / s) helper; kept out-of-line of <cmath> constexpr limits.
  static double sqrt_neg2log(double s) noexcept;

  std::uint64_t state_[4]{};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace autohet::common
