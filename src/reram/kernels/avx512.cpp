// AVX-512 kernel variant: 512-bit lanes with the dedicated VPOPCNTDQ
// per-64-bit popcount instruction and masked loads for ragged word tails,
// and the keyed burn's 8-lane SplitMix64 on vpmullq.
// Compiled with -mavx512f -mavx512bw -mavx512vl -mavx512dq -mavx512vpopcntdq
// (per-file flags in src/reram/CMakeLists.txt — never globally); gated on
// AUTOHET_KERNELS_AVX512 exactly like the AVX2 unit.
#include <cstdint>

#include "reram/kernels/kernels.hpp"

#if defined(AUTOHET_KERNELS_AVX512)

#include <immintrin.h>

#include <algorithm>

#include "reram/kernels/kernel_ops.inl"

// GCC's AVX-512 intrinsic headers model "don't care" merge operands as
// deliberately-uninitialized __m256i/__m512i locals (__Y = __Y), which
// -Wmaybe-uninitialized flags once the wrappers inline (seen with
// _mm512_cvtepu8_epi32 and the extract helpers on GCC 12). These are header
// false positives, not bugs in this unit.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

namespace autohet::reram::kernels {
namespace {

// Store-and-sum horizontal reduction. _mm512_reduce_add_epi64 would be the
// obvious choice, but GCC implements it via _mm256_undefined_si256() and
// flags the deliberately-uninitialized merge operand under
// -Wmaybe-uninitialized; this compiles to the same extract/add sequence.
inline std::int64_t hsum512(__m512i v) {
  alignas(64) std::int64_t lanes[8];
  _mm512_store_si512(lanes, v);
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

struct Avx512Core {
  static constexpr std::int64_t kLanes = 16;
  static std::int64_t weighted_popcount(const std::uint64_t* x8,
                                        const std::uint64_t* p,
                                        std::int64_t words) {
    // All 8 input planes against one loaded weight-plane chunk; the 2^xb
    // weights ride in the vector accumulator (counts ≤ 64 << 7 per lane
    // per add — nowhere near i64 overflow), so the whole column costs a
    // single horizontal reduction.
    __m512i acc = _mm512_setzero_si512();
    std::int64_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i pv = _mm512_loadu_si512(p + w);
      for (int xb = 0; xb < 8; ++xb) {
        const __m512i v = _mm512_and_si512(
            _mm512_loadu_si512(x8 + xb * words + w), pv);
        acc = _mm512_add_epi64(
            acc, _mm512_slli_epi64(_mm512_popcnt_epi64(v),
                                   static_cast<unsigned int>(xb)));
      }
    }
    if (w < words) {
      const __mmask8 m = static_cast<__mmask8>((1u << (words - w)) - 1u);
      const __m512i pv = _mm512_maskz_loadu_epi64(m, p + w);
      for (int xb = 0; xb < 8; ++xb) {
        const __m512i v = _mm512_and_si512(
            _mm512_maskz_loadu_epi64(m, x8 + xb * words + w), pv);
        acc = _mm512_add_epi64(
            acc, _mm512_slli_epi64(_mm512_popcnt_epi64(v),
                                   static_cast<unsigned int>(xb)));
      }
    }
    return hsum512(acc);
  }
  // Register tile: 4 columns × 4 vectors = 16 of the 32 zmm accumulators.
  static constexpr int kTileCols = 4;
  static constexpr int kTileVecs = 4;
  using Vec = __m512i;
  static Vec zero() { return _mm512_setzero_si512(); }
  static Vec load_x(const std::uint8_t* xs) {
    return _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(xs)));
  }
  static Vec weight(std::int8_t w) { return _mm512_set1_epi32(w); }
  static Vec madd(Vec acc, Vec x, Vec w) {
    return _mm512_add_epi32(acc, _mm512_madd_epi16(x, w));
  }
  static void add_store(std::int32_t* acc, Vec v) {
    _mm512_storeu_si512(acc, _mm512_add_epi32(_mm512_loadu_si512(acc), v));
  }
  static void madd_row(std::int32_t* acc, const std::int8_t* w,
                       std::int32_t x, std::int64_t cols) {
    const __m512i xv = _mm512_set1_epi32(x);
    std::int64_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      const __m512i w32 = _mm512_cvtepi8_epi32(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + j)));
      const __m512i a = _mm512_loadu_si512(acc + j);
      _mm512_storeu_si512(acc + j,
                          _mm512_add_epi32(a, _mm512_madd_epi16(w32, xv)));
    }
    if (j < cols) {
      const __mmask16 m = static_cast<__mmask16>((1u << (cols - j)) - 1u);
      const __m512i w32 =
          _mm512_cvtepi8_epi32(_mm_maskz_loadu_epi8(m, w + j));
      const __m512i a = _mm512_maskz_loadu_epi32(m, acc + j);
      _mm512_mask_storeu_epi32(
          acc + j, m, _mm512_add_epi32(a, _mm512_madd_epi16(w32, xv)));
    }
  }
  // Keyed burn: 8 weights per zmm, one uint64 draw state per lane.
  static constexpr int kBurnLanes = 8;
  using Draws = __m512i;
  // The stay bounds of up to 16 levels, two registers each, looked up with
  // one vpermi2q per bound.
  struct StayTable {
    __m512i lo0, lo1, hi0, hi1;
  };
  static StayTable stay_table(const std::uint64_t* lo, const std::uint64_t* hi,
                              int levels) {
    const auto first = static_cast<__mmask8>((1u << std::min(levels, 8)) - 1u);
    const auto second =
        static_cast<__mmask8>((1u << std::max(levels - 8, 0)) - 1u);
    return {_mm512_maskz_loadu_epi64(first, lo),
            _mm512_maskz_loadu_epi64(second, lo + 8),
            _mm512_maskz_loadu_epi64(first, hi),
            _mm512_maskz_loadu_epi64(second, hi + 8)};
  }
  static Draws offsets(const std::int8_t* w, int n) {
    const auto m = static_cast<__mmask16>((1u << n) - 1u);
    return _mm512_add_epi64(_mm512_cvtepi8_epi64(_mm_maskz_loadu_epi8(m, w)),
                            _mm512_set1_epi64(128));
  }
  static Draws lane_states(std::uint64_t z) {
    constexpr std::uint64_t g = 16 * detail::kGamma;
    const __m512i lanes = _mm512_set_epi64(
        static_cast<long long>(7 * g), static_cast<long long>(6 * g),
        static_cast<long long>(5 * g), static_cast<long long>(4 * g),
        static_cast<long long>(3 * g), static_cast<long long>(2 * g),
        static_cast<long long>(g), 0);
    return add(lanes, z);
  }
  static Draws add(Draws v, std::uint64_t c) {
    return _mm512_add_epi64(v, _mm512_set1_epi64(static_cast<long long>(c)));
  }
  static Draws mix52(Draws z) {
    z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
        _mm512_set1_epi64(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
    z = _mm512_mullo_epi64(
        _mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
        _mm512_set1_epi64(static_cast<long long>(0x94d049bb133111ebULL)));
    return _mm512_srli_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 31)),
                             12);
  }
  static Draws plane_levels(Draws offsets, int shift, unsigned mask) {
    return _mm512_and_si512(
        _mm512_srl_epi64(offsets, _mm_cvtsi32_si128(shift)),
        _mm512_set1_epi64(static_cast<long long>(mask)));
  }
  static unsigned below(Draws k, std::uint64_t thr) {
    return _mm512_cmplt_epu64_mask(
        k, _mm512_set1_epi64(static_cast<long long>(thr)));
  }
  static unsigned moved(Draws k, Draws levels, const StayTable& t) {
    const __m512i lo = _mm512_permutex2var_epi64(t.lo0, levels, t.lo1);
    const __m512i hi = _mm512_permutex2var_epi64(t.hi0, levels, t.hi1);
    return _mm512_cmplt_epu64_mask(k, lo) | _mm512_cmpge_epu64_mask(k, hi);
  }
  static void store(std::uint64_t* out, Draws v) {
    _mm512_storeu_si512(out, v);
  }
};

void avx512_bit_serial_mvm(const std::uint64_t* planes, std::int64_t cols,
                           std::int64_t words, const std::uint64_t* xbits,
                           std::int64_t count, std::int32_t* acc_t) {
  detail::bit_serial_mvm_impl<Avx512Core>(planes, cols, words, xbits, count,
                                          acc_t);
}

void avx512_reference_batch(const std::int8_t* cells, std::int64_t rows,
                            std::int64_t cols, const std::uint8_t* inputs_t,
                            std::int64_t count, std::int32_t* acc_t) {
  detail::reference_batch_impl<Avx512Core>(cells, rows, cols, inputs_t, count,
                                           acc_t);
}

FaultMapStats avx512_burn_block(const BurnBlock& block) {
  return detail::burn_block_impl<Avx512Core>(block);
}

}  // namespace

namespace detail {
const Ops kAvx512Ops = {"avx512", avx512_bit_serial_mvm,
                        avx512_reference_batch, avx512_burn_block};
}  // namespace detail

}  // namespace autohet::reram::kernels

#else  // !AUTOHET_KERNELS_AVX512

namespace autohet::reram::kernels::detail {
const Ops kAvx512Ops = {};  // not compiled in; dispatch skips it
}  // namespace autohet::reram::kernels::detail

#endif  // AUTOHET_KERNELS_AVX512
