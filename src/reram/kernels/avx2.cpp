// AVX2 kernel variant. Compiled with -mavx2 -mpopcnt (per-file flags in
// src/reram/CMakeLists.txt — never globally); the whole body is gated on
// AUTOHET_KERNELS_AVX2 so builds whose compiler lacks the flags still link
// (the table's function pointers stay null and dispatch skips the variant).
//
// Popcount uses the nibble-LUT technique (Mula): vpshufb maps each nibble
// to its bit count, vpsadbw folds the byte counts into per-64-bit-lane
// sums — 256 bits per iteration against the portable path's 64.
#include <cstdint>

#include "reram/kernels/kernels.hpp"

#if defined(AUTOHET_KERNELS_AVX2)

#include <immintrin.h>

#include <bit>
#include <cstring>

#include "reram/kernels/kernel_ops.inl"

namespace autohet::reram::kernels {
namespace {

inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

inline std::int64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return _mm_cvtsi128_si64(sum) +
         _mm_cvtsi128_si64(_mm_unpackhi_epi64(sum, sum));
}

struct Avx2Core {
  static constexpr std::int64_t kLanes = 8;
  static std::int64_t weighted_popcount(const std::uint64_t* x8,
                                        const std::uint64_t* p,
                                        std::int64_t words) {
    // One weight-plane chunk load serves all 8 input planes, and the 2^xb
    // weighting happens on the vpsadbw lane counts inside the vector
    // accumulator — one horizontal reduction per column, not eight.
    __m256i acc = _mm256_setzero_si256();
    const __m256i zero = _mm256_setzero_si256();
    std::int64_t w = 0;
    for (; w + 4 <= words; w += 4) {
      const __m256i pv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + w));
      for (int xb = 0; xb < 8; ++xb) {
        const __m256i v = _mm256_and_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(x8 + xb * words + w)),
            pv);
        const __m256i cnt = _mm256_sad_epu8(popcount_bytes(v), zero);
        acc = _mm256_add_epi64(acc, _mm256_slli_epi64(cnt, xb));
      }
    }
    std::int64_t n = hsum_epi64(acc);
    for (; w < words; ++w) {
      for (int xb = 0; xb < 8; ++xb) {
        n += static_cast<std::int64_t>(
                 std::popcount(x8[xb * words + w] & p[w]))
             << xb;
      }
    }
    return n;
  }
  // Register tile: 4 columns × 2 vectors = 8 of the 16 ymm accumulators.
  static constexpr int kTileCols = 4;
  static constexpr int kTileVecs = 2;
  using Vec = __m256i;
  static Vec zero() { return _mm256_setzero_si256(); }
  static Vec load_x(const std::uint8_t* xs) {
    return _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(xs)));
  }
  static Vec weight(std::int8_t w) { return _mm256_set1_epi32(w); }
  static Vec madd(Vec acc, Vec x, Vec w) {
    return _mm256_add_epi32(acc, _mm256_madd_epi16(x, w));
  }
  static void add_store(std::int32_t* acc, Vec v) {
    __m256i* p = reinterpret_cast<__m256i*>(acc);
    _mm256_storeu_si256(p, _mm256_add_epi32(_mm256_loadu_si256(p), v));
  }
  static void madd_row(std::int32_t* acc, const std::int8_t* w,
                       std::int32_t x, std::int64_t cols) {
    const __m256i xv = _mm256_set1_epi32(x);
    std::int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256i w32 = _mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(w + j)));
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + j));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(acc + j),
          _mm256_add_epi32(a, _mm256_madd_epi16(w32, xv)));
    }
    for (; j < cols; ++j) acc[j] += x * static_cast<std::int32_t>(w[j]);
  }
  // Keyed burn: 4 weights per ymm. AVX2 has no 64-bit multiply, so each
  // mix52 multiply takes three vpmuludq; draws and thresholds are below
  // 2^53, so the signed compares are exact.
  static constexpr int kBurnLanes = 4;
  using Draws = __m256i;
  struct StayTable {
    const std::uint64_t* lo;
    const std::uint64_t* hi;
  };
  static StayTable stay_table(const std::uint64_t* lo, const std::uint64_t* hi,
                              int) {
    return {lo, hi};
  }
  static Draws offsets(const std::int8_t* w, int n) {
    std::int32_t bytes = 0;
    std::memcpy(&bytes, w, static_cast<std::size_t>(n));
    return _mm256_add_epi64(_mm256_cvtepi8_epi64(_mm_cvtsi32_si128(bytes)),
                            _mm256_set1_epi64x(128));
  }
  static Draws lane_states(std::uint64_t z) {
    constexpr std::uint64_t g = 16 * detail::kGamma;
    return add(_mm256_set_epi64x(static_cast<long long>(3 * g),
                                 static_cast<long long>(2 * g),
                                 static_cast<long long>(g), 0),
               z);
  }
  static Draws add(Draws v, std::uint64_t c) {
    return _mm256_add_epi64(v, _mm256_set1_epi64x(static_cast<long long>(c)));
  }
  static Draws mul(Draws z, std::uint64_t c) {
    const __m256i lo =
        _mm256_set1_epi64x(static_cast<long long>(c & 0xffffffffULL));
    const __m256i hi = _mm256_set1_epi64x(static_cast<long long>(c >> 32));
    const __m256i cross =
        _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(z, 32), lo),
                         _mm256_mul_epu32(z, hi));
    return _mm256_add_epi64(_mm256_mul_epu32(z, lo),
                            _mm256_slli_epi64(cross, 32));
  }
  static Draws mix52(Draws z) {
    z = mul(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
            0xbf58476d1ce4e5b9ULL);
    z = mul(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
            0x94d049bb133111ebULL);
    return _mm256_srli_epi64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 31)),
                             12);
  }
  static Draws plane_levels(Draws offsets, int shift, unsigned mask) {
    return _mm256_and_si256(
        _mm256_srl_epi64(offsets, _mm_cvtsi32_si128(shift)),
        _mm256_set1_epi64x(static_cast<long long>(mask)));
  }
  static unsigned lanes(__m256i m) {
    return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(m)));
  }
  static unsigned below(Draws k, std::uint64_t thr) {
    return lanes(_mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(thr)), k));
  }
  static unsigned moved(Draws k, Draws levels, const StayTable& t) {
    const __m256i lo = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(t.lo), levels, 8);
    const __m256i hi = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(t.hi), levels, 8);
    // k < lo or k >= hi ⟺ not (k >= lo and hi > k).
    return lanes(_mm256_cmpgt_epi64(lo, k)) |
           (lanes(_mm256_cmpgt_epi64(hi, k)) ^ 0xfu);
  }
  static void store(std::uint64_t* out, Draws v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), v);
  }
};

void avx2_bit_serial_mvm(const std::uint64_t* planes, std::int64_t cols,
                         std::int64_t words, const std::uint64_t* xbits,
                         std::int64_t count, std::int32_t* acc_t) {
  detail::bit_serial_mvm_impl<Avx2Core>(planes, cols, words, xbits, count,
                                        acc_t);
}

void avx2_reference_batch(const std::int8_t* cells, std::int64_t rows,
                          std::int64_t cols, const std::uint8_t* inputs_t,
                          std::int64_t count, std::int32_t* acc_t) {
  detail::reference_batch_impl<Avx2Core>(cells, rows, cols, inputs_t, count,
                                         acc_t);
}

FaultMapStats avx2_burn_block(const BurnBlock& block) {
  return detail::burn_block_impl<Avx2Core>(block);
}

}  // namespace

namespace detail {
const Ops kAvx2Ops = {"avx2", avx2_bit_serial_mvm,
                      avx2_reference_batch, avx2_burn_block};
}  // namespace detail

}  // namespace autohet::reram::kernels

#else  // !AUTOHET_KERNELS_AVX2

namespace autohet::reram::kernels::detail {
const Ops kAvx2Ops = {};  // not compiled in; dispatch skips it
}  // namespace autohet::reram::kernels::detail

#endif  // AUTOHET_KERNELS_AVX2
