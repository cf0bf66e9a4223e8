// AVX2 RL dense kernels: a 4×8 tile of 256-bit registers — 8 accumulators,
// 2 B vectors and a broadcast, well inside the 16 ymm registers. (The
// portable 4×16 tile compiled for AVX2 needs 16 accumulators alone, spills
// on every k step and runs slower than SSE2.) AVX masked loads/stores cover
// the ragged column tail. Compiled with -mavx2 -ffp-contract=off (per-file
// flags in src/rl/CMakeLists.txt — never globally, and never -mfma); gated
// on AUTOHET_RL_KERNELS_AVX2.
#include <cstddef>

#include "rl/kernels/dense.hpp"

#if defined(AUTOHET_RL_KERNELS_AVX2)

#include <immintrin.h>

#include "rl/kernels/dense_ops.inl"

namespace autohet::rl::kernels {
namespace {

struct Avx2Core {
  typedef double V __attribute__((vector_size(32)));
  static constexpr int kLanes = 4;

  static V load(const double* p) noexcept {
    return reinterpret_cast<V>(_mm256_loadu_pd(p));
  }
  static void store(double* p, V v) noexcept {
    _mm256_storeu_pd(p, reinterpret_cast<__m256d>(v));
  }
  static __m256i mask(std::size_t n) noexcept {
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                              lane);
  }
  static V load_part(const double* p, std::size_t n) noexcept {
    return reinterpret_cast<V>(_mm256_maskload_pd(p, mask(n)));
  }
  static void store_part(double* p, V v, std::size_t n) noexcept {
    _mm256_maskstore_pd(p, mask(n), reinterpret_cast<__m256d>(v));
  }
};

}  // namespace

namespace detail {
const Ops kAvx2Ops = {gemm_acc_tiled<Avx2Core, 4, 2>, adam_step<Avx2Core>,
                      soft_update<Avx2Core>};
}  // namespace detail

}  // namespace autohet::rl::kernels

#else  // !AUTOHET_RL_KERNELS_AVX2

namespace autohet::rl::kernels::detail {
const Ops kAvx2Ops = {};  // not compiled in; dispatch skips it
}  // namespace autohet::rl::kernels::detail

#endif  // AUTOHET_RL_KERNELS_AVX2
