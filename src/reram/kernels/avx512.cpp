// AVX-512 kernel variant: 512-bit lanes with the dedicated VPOPCNTDQ
// per-64-bit popcount instruction and masked loads for ragged word tails,
// plus the lockstep fault burn-in (8 trial streams in one vector; its
// polar draw converts int64 to double with AVX-512DQ's vcvtqq2pd).
// Compiled with -mavx512f -mavx512bw -mavx512vl -mavx512vpopcntdq
// -mavx512dq (per-file flags in src/reram/CMakeLists.txt — never
// globally); gated on AUTOHET_KERNELS_AVX512 exactly like the AVX2 unit.
#include <cstdint>

#include "reram/kernels/kernels.hpp"

#if defined(AUTOHET_KERNELS_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <bit>

#include "reram/faults.hpp"
#include "reram/kernels/burn_ops.inl"
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
};

void bit_serial_mvm(const std::uint64_t* planes, std::int64_t plane_cols,
                    std::int64_t col_words, std::int64_t cols,
                    std::int64_t words, const std::uint64_t* xbits,
                    std::int64_t count, std::int32_t* acc_t) {
  detail::bit_serial_mvm_impl<Avx512Core>(planes, plane_cols, col_words, cols,
                                          words, xbits, count, acc_t);
}

void reference_batch(const std::int8_t* cells, std::int64_t row_stride,
                     std::int64_t rows, std::int64_t cols,
                     const std::uint8_t* inputs_t, std::int64_t count,
                     std::int32_t* acc_t) {
  detail::reference_batch_impl<Avx512Core>(cells, row_stride, rows, cols,
                                           inputs_t, count, acc_t);
}

// ---- lockstep fault burn-in ----
//
// The trials of one Monte-Carlo point burn clones of one clean array, so
// the scalar kernel's per-cell control flow (one stuck draw per plane, one
// normal per nonzero level) depends only on the shared weights. Only the
// polar rejection retries, the rare requantizations and the stuck hits
// differ per trial: the retries run under a lane mask, the other two are
// per-lane scalar fix-ups on the rare path. Each lane therefore consumes
// its stream draw for draw as burn_lane_scalar would, and ends with the
// same cells, stats and recording.

// The hot helpers below are forced inline: the 8 streams' state must stay
// in registers across every draw of a cell. The rare per-lane fix-ups are
// kept out of line and never see that state.
#define AUTOHET_HOT __attribute__((always_inline))
#define AUTOHET_COLD __attribute__((noinline, cold))

/// xoshiro256** in the 8 64-bit lanes of a vector (the common::Rng step).
struct Xoshiro8 {
  __m512i s0, s1, s2, s3;

  /// The raw outputs (rotl(s1·5, 7)·9, the multiplies as shift-adds).
  AUTOHET_HOT __m512i output() const {
    const __m512i x5 = _mm512_add_epi64(_mm512_slli_epi64(s1, 2), s1);
    const __m512i rot = _mm512_rol_epi64(x5, 7);
    return _mm512_add_epi64(_mm512_slli_epi64(rot, 3), rot);
  }

  /// output(), advancing every lane. The xor pairs fuse into ternary-logic
  /// ops (0x96 = a ^ b ^ c).
  AUTOHET_HOT __m512i next() {
    const __m512i result = output();
    const __m512i t = _mm512_slli_epi64(s1, 17);
    const __m512i n3 = _mm512_xor_si512(s3, s1);
    const __m512i n2 = _mm512_xor_si512(s2, s0);
    s1 = _mm512_ternarylogic_epi64(s1, s2, s0, 0x96);
    s0 = _mm512_xor_si512(s0, n3);
    s2 = _mm512_xor_si512(n2, t);
    s3 = _mm512_rol_epi64(n3, 45);
    return result;
  }

  /// next() for the lanes in `m`; the others keep their state.
  AUTOHET_HOT __m512i next(__mmask8 m) {
    const __m512i result = output();
    const __m512i t = _mm512_slli_epi64(s1, 17);
    const __m512i n3 = _mm512_xor_si512(s3, s1);
    const __m512i n2 = _mm512_xor_si512(s2, s0);
    s1 = _mm512_mask_ternarylogic_epi64(s1, m, s2, s0, 0x96);
    s0 = _mm512_mask_xor_epi64(s0, m, s0, n3);
    s2 = _mm512_mask_xor_epi64(s2, m, n2, t);
    s3 = _mm512_mask_rol_epi64(s3, m, n3, 45);
    return result;
  }
};

/// Burns lanes[0, n) (1 ≤ n ≤ 8) in lockstep; see burn_lane_scalar for
/// the per-cell stream order this replays.
template <int kPlanes, bool kRecord>
void burn_lockstep(const BurnSpec& spec, std::int64_t rows,
                   std::int64_t cols, std::int64_t row_stride,
                   BurnLane* lanes, std::size_t n) {
  constexpr int b = 8 / kPlanes;
  constexpr int planes = kPlanes;
  constexpr unsigned mask = (1u << b) - 1u;
  constexpr unsigned top_level = 1u << (b - 1);
  const auto active = static_cast<__mmask8>((1u << n) - 1u);
  Xoshiro8 rng;
  {
    // Spare lanes stay all-zero: every mask below excludes them.
    alignas(64) std::uint64_t words[4][8] = {};
    for (std::size_t l = 0; l < n; ++l) {
      const auto state = lanes[l].rng.state();
      for (std::size_t w = 0; w < 4; ++w) words[w][l] = state[w];
    }
    rng.s0 = _mm512_load_si512(words[0]);
    rng.s1 = _mm512_load_si512(words[1]);
    rng.s2 = _mm512_load_si512(words[2]);
    rng.s3 = _mm512_load_si512(words[3]);
  }
  const double sigma = spec.sigma;
  const bool variation = sigma > 0.0;
  const bool stuck = spec.stuck;
  // A lane hits when its 53-bit draw k = raw >> 11 is below the threshold
  // thr ≥ 1, i.e. when raw ≤ thr·2¹¹ − 1 (exact up to thr = 2⁵³).
  const std::uint64_t thr53 =
      kRecord ? FaultModel::kRecordCap53 : spec.sum_thr53;
  const __m512i hit_max =
      _mm512_set1_epi64(static_cast<long long>((thr53 << 11) - 1));
  const __m512i half = _mm512_set1_epi64(1ll << 52);
  const __m512d scale = _mm512_set1_pd(0x1.0p-52);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d zero = _mm512_setzero_pd();
  std::int64_t zeros[8] = {}, ones[8] = {}, changed[8] = {};
  // The cell being burned, and the lanes whose cell moved (a stuck hit or
  // a requantization): those carry their perturbed offset in outs[], the
  // rest keep `weight`.
  std::int64_t cell = 0;
  std::int8_t weight = 0;
  unsigned offset = 0;
  unsigned outs[8];
  unsigned touched = 0;
  const auto set_plane = [&](unsigned l, int p, unsigned level) {
    if (!((touched >> l) & 1u)) {
      outs[l] = offset;
      touched |= 1u << l;
    }
    outs[l] = (outs[l] & ~(mask << (p * b))) | (level << (p * b));
  };
  // Stuck draws of plane p that hit in the lanes of `hit` (raw draws in
  // `raw`): recorded, or forced and counted.
  const auto on_hits = [&](unsigned hit, const std::uint64_t* raw,
                           int p) AUTOHET_COLD {
    for (unsigned m = hit; m != 0; m &= m - 1) {
      const auto l = static_cast<unsigned>(std::countr_zero(m));
      const std::uint64_t k = raw[l] >> 11;
      if constexpr (kRecord) {
        const auto plane = static_cast<std::uint64_t>(cell) * planes +
                           static_cast<std::uint64_t>(p);
        lanes[l].bins[k >> FaultModel::kRecordBucketShift].push_back(
            {k, static_cast<std::uint32_t>(plane), weight});
      } else if (k < spec.zero_thr53) {
        ++zeros[l];
        set_plane(l, p, 0);
      } else {
        ++ones[l];
        set_plane(l, p, mask);
      }
    }
  };
  // Variation draws of plane q at `level` whose polar s fell at or below
  // the safety bound in the lanes of `near`.
  const auto on_near = [&](unsigned near, const double* s, const double* uv,
                           int q, unsigned level) AUTOHET_COLD {
    for (unsigned m = near; m != 0; m &= m - 1) {
      const auto l = static_cast<unsigned>(std::countr_zero(m));
      const unsigned quantized = requantize(level, s[l], uv[l], sigma, mask);
      if (quantized != level) set_plane(l, q, quantized);
    }
  };
  // The polar pair cache, per lane. Whether a pair is pending depends only
  // on how many normals were drawn, which the shared weights fix.
  bool has_pending = false;
  __m512d pu = zero, pv = zero, ps = zero;
  // uniform(-1, 1) exactly as burn_lane_scalar's unit_draw computes it.
  const auto unit = [&](__m512i raw) AUTOHET_HOT {
    return _mm512_mul_pd(
        _mm512_cvtepi64_pd(
            _mm512_sub_epi64(_mm512_srli_epi64(raw, 11), half)),
        scale);
  };
  const auto next_normal = [&](__m512d& s, __m512d& uv) AUTOHET_HOT {
    if (has_pending) {
      has_pending = false;
      s = ps;
      uv = pv;
      return;
    }
    // Masked polar loop: a lane leaves `need` once its pair is accepted and
    // draws no further.
    __mmask8 need = active;
    do {
      const __m512d u = unit(rng.next(need));
      const __m512d v = unit(rng.next(need));
      const __m512d s2 =
          _mm512_add_pd(_mm512_mul_pd(u, u), _mm512_mul_pd(v, v));
      pu = _mm512_mask_mov_pd(pu, need, u);
      pv = _mm512_mask_mov_pd(pv, need, v);
      ps = _mm512_mask_mov_pd(ps, need, s2);
      const __mmask8 inside =
          _mm512_mask_cmp_pd_mask(need, s2, one, _CMP_LT_OQ);
      need &= static_cast<__mmask8>(
          ~_mm512_mask_cmp_pd_mask(inside, s2, zero, _CMP_NEQ_OQ));
    } while (need);
    has_pending = true;
    s = ps;
    uv = pu;
  };
  const auto stuck_draw = [&](int p) AUTOHET_HOT {
    const __m512i raw = rng.next();
    const __mmask8 hit = _mm512_mask_cmple_epu64_mask(active, raw, hit_max);
    if (hit) [[unlikely]] {
      alignas(64) std::uint64_t raws[8];
      _mm512_store_si512(raws, raw);
      on_hits(hit, raws, p);
    }
  };
  const auto vary = [&](int q, unsigned level) AUTOHET_HOT {
    __m512d s, uv;
    next_normal(s, uv);
    const __mmask8 near = _mm512_mask_cmp_pd_mask(
        active, s, _mm512_set1_pd(spec.s_safe[level]), _CMP_LE_OQ);
    if (near) [[unlikely]] {
      alignas(64) double ss[8], us[8];
      _mm512_store_pd(ss, s);
      _mm512_store_pd(us, uv);
      on_near(near, ss, us, q, level);
    }
  };
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::int64_t idx = r * row_stride + c;
      cell = r * cols + c;
      weight = lanes[0].cells[idx];
      offset = static_cast<unsigned>(static_cast<int>(weight) + 128);
      touched = 0;
      if (weight == 0) {
        if (stuck) {
          for (int p = 0; p < planes - 1; ++p) stuck_draw(p);
        }
        if (variation) vary(planes - 1, top_level);
        if (stuck) stuck_draw(planes - 1);
      } else {
        unsigned plane_mask = 0;
        if (variation) {
          for (int p = 0; p < planes; ++p) {
            plane_mask |= ((offset >> (p * b)) & mask) ? 1u << p : 0u;
          }
        }
        int p = 0;
        while (plane_mask) {
          const int q = std::countr_zero(plane_mask);
          plane_mask &= plane_mask - 1;
          if (stuck) {
            for (; p < q; ++p) stuck_draw(p);
          }
          vary(q, (offset >> (q * b)) & mask);
          if (stuck) stuck_draw(q);
          p = q + 1;
        }
        if (stuck) {
          for (; p < planes; ++p) stuck_draw(p);
        }
      }
      if (touched) [[unlikely]] {
        for (unsigned m = touched; m != 0; m &= m - 1) {
          const auto l = static_cast<unsigned>(std::countr_zero(m));
          const auto perturbed =
              static_cast<std::int8_t>(static_cast<int>(outs[l]) - 128);
          if (perturbed != weight) {
            ++changed[l];
            lanes[l].cells[idx] = perturbed;
          }
        }
      }
    }
  }
  for (std::size_t l = 0; l < n; ++l) {
    *lanes[l].stats = {rows * cols * planes, zeros[l], ones[l], changed[l]};
  }
}

#undef AUTOHET_HOT
#undef AUTOHET_COLD

void burn(const BurnSpec& spec, std::int64_t rows, std::int64_t cols,
          std::int64_t row_stride, BurnLane* lanes, std::size_t count) {
  with_burn_shape(spec, [&]<int kPlanes, bool kRecord>() {
    for (std::size_t g = 0; g < count; g += kBurnLanes) {
      const std::size_t n = std::min(kBurnLanes, count - g);
      // A lone lane would leave 7 of 8 vector lanes idle: the scalar
      // kernel runs it faster.
      if (n == 1) {
        burn_lane_scalar<kPlanes, kRecord>(spec, rows, cols, row_stride,
                                           lanes[g]);
      } else {
        burn_lockstep<kPlanes, kRecord>(spec, rows, cols, row_stride,
                                        lanes + g, n);
      }
    }
  });
}

}  // namespace

namespace detail {
const Ops kAvx512Ops = {"avx512", bit_serial_mvm, reference_batch, burn};
}  // namespace detail

}  // namespace autohet::reram::kernels

#else  // !AUTOHET_KERNELS_AVX512

namespace autohet::reram::kernels::detail {
const Ops kAvx512Ops = {};  // not compiled in; dispatch skips it
}  // namespace autohet::reram::kernels::detail

#endif  // AUTOHET_KERNELS_AVX512
