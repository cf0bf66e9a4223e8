// AVX-512 RL dense kernels: an 8×16 tile of 512-bit registers — 16
// accumulators, 2 B vectors and a broadcast of the 32 zmm registers — with
// masked loads/stores for the ragged column tail (the 10/11-wide state
// inputs, the 1-wide critic/actor outputs). Needs AVX-512F only. Compiled
// with -mavx512f -ffp-contract=off (per-file flags in src/rl/CMakeLists.txt
// — never globally); gated on AUTOHET_RL_KERNELS_AVX512.
#include <cstddef>

#include "rl/kernels/dense.hpp"

#if defined(AUTOHET_RL_KERNELS_AVX512)

#include <immintrin.h>

#include "rl/kernels/dense_ops.inl"

namespace autohet::rl::kernels {
namespace {

struct Avx512Core {
  typedef double V __attribute__((vector_size(64)));
  static constexpr int kLanes = 8;

  static V load(const double* p) noexcept {
    return reinterpret_cast<V>(_mm512_loadu_pd(p));
  }
  static void store(double* p, V v) noexcept {
    _mm512_storeu_pd(p, reinterpret_cast<__m512d>(v));
  }
  static __mmask8 mask(std::size_t n) noexcept {
    return static_cast<__mmask8>((1u << n) - 1u);
  }
  static V load_part(const double* p, std::size_t n) noexcept {
    return reinterpret_cast<V>(_mm512_maskz_loadu_pd(mask(n), p));
  }
  static void store_part(double* p, V v, std::size_t n) noexcept {
    _mm512_mask_storeu_pd(p, mask(n), reinterpret_cast<__m512d>(v));
  }
};

}  // namespace

namespace detail {
const Ops kAvx512Ops = {gemm_acc_tiled<Avx512Core, 8, 2>,
                        adam_step<Avx512Core>, soft_update<Avx512Core>};
}  // namespace detail

}  // namespace autohet::rl::kernels

#else  // !AUTOHET_RL_KERNELS_AVX512

namespace autohet::rl::kernels::detail {
const Ops kAvx512Ops = {};  // not compiled in; dispatch skips it
}  // namespace autohet::rl::kernels::detail

#endif  // AUTOHET_RL_KERNELS_AVX512
