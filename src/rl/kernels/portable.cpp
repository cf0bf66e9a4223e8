// Portable RL dense kernels: the reference every variant must match bit for
// bit. Compiled with the project's baseline flags, so on x86-64 its vector
// registers are SSE2 pairs.
#include <cstddef>
#include <cstring>

#include "rl/kernels/dense.hpp"
#include "rl/kernels/dense_ops.inl"

namespace autohet::rl::kernels {
namespace {

// Register-tiled C += A·B micro-kernel. For every C element the
// k-accumulation runs in strictly ascending k — the exact order of the
// per-sample scalar path — so results are bit-identical to calling
// Mlp::forward()/backward() one sample at a time.
//
// The 4×16 accumulator tile is held in explicit vector-extension registers:
// a plain-array formulation of this tile was spilled to the stack by GCC and
// ran 5x *slower* than the naive loop, while this version measures ~4.5x
// faster (store-port-bound axpy → arithmetic-bound tile).
#if defined(__GNUC__) || defined(__clang__)
typedef double v8df __attribute__((vector_size(64)));

inline v8df splat8(double x) noexcept {
  return v8df{x, x, x, x, x, x, x, x};
}
inline v8df load8(const double* p) noexcept {
  v8df v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void store8(double* p, v8df v) noexcept {
  std::memcpy(p, &v, sizeof(v));
}

void gemm_acc(std::size_t M, std::size_t K, std::size_t N, const double* A,
              std::size_t sam, std::size_t sak, const double* B,
              std::size_t ldb, double* C, std::size_t ldc) {
  const std::size_t m_full = M - M % 4;
  const std::size_t n16 = N - N % 16;
  const std::size_t n8 = N - N % 8;
  std::size_t m0 = 0;
  for (; m0 < m_full; m0 += 4) {
    const double* a0p = A + (m0 + 0) * sam;
    const double* a1p = A + (m0 + 1) * sam;
    const double* a2p = A + (m0 + 2) * sam;
    const double* a3p = A + (m0 + 3) * sam;
    double* r0 = C + (m0 + 0) * ldc;
    double* r1 = C + (m0 + 1) * ldc;
    double* r2 = C + (m0 + 2) * ldc;
    double* r3 = C + (m0 + 3) * ldc;
    std::size_t n0 = 0;
    for (; n0 < n16; n0 += 16) {
      v8df c00 = load8(r0 + n0), c01 = load8(r0 + n0 + 8);
      v8df c10 = load8(r1 + n0), c11 = load8(r1 + n0 + 8);
      v8df c20 = load8(r2 + n0), c21 = load8(r2 + n0 + 8);
      v8df c30 = load8(r3 + n0), c31 = load8(r3 + n0 + 8);
      for (std::size_t k = 0; k < K; ++k) {
        const double* bk = B + k * ldb + n0;
        const v8df b0 = load8(bk), b1 = load8(bk + 8);
        const v8df a0 = splat8(a0p[k * sak]);
        const v8df a1 = splat8(a1p[k * sak]);
        const v8df a2 = splat8(a2p[k * sak]);
        const v8df a3 = splat8(a3p[k * sak]);
        c00 += a0 * b0;
        c01 += a0 * b1;
        c10 += a1 * b0;
        c11 += a1 * b1;
        c20 += a2 * b0;
        c21 += a2 * b1;
        c30 += a3 * b0;
        c31 += a3 * b1;
      }
      store8(r0 + n0, c00);
      store8(r0 + n0 + 8, c01);
      store8(r1 + n0, c10);
      store8(r1 + n0 + 8, c11);
      store8(r2 + n0, c20);
      store8(r2 + n0 + 8, c21);
      store8(r3 + n0, c30);
      store8(r3 + n0 + 8, c31);
    }
    for (; n0 < n8; n0 += 8) {
      v8df c0 = load8(r0 + n0), c1 = load8(r1 + n0);
      v8df c2 = load8(r2 + n0), c3 = load8(r3 + n0);
      for (std::size_t k = 0; k < K; ++k) {
        const v8df b0 = load8(B + k * ldb + n0);
        c0 += splat8(a0p[k * sak]) * b0;
        c1 += splat8(a1p[k * sak]) * b0;
        c2 += splat8(a2p[k * sak]) * b0;
        c3 += splat8(a3p[k * sak]) * b0;
      }
      store8(r0 + n0, c0);
      store8(r1 + n0, c1);
      store8(r2 + n0, c2);
      store8(r3 + n0, c3);
    }
    for (; n0 < N; ++n0) {
      double acc0 = r0[n0], acc1 = r1[n0], acc2 = r2[n0], acc3 = r3[n0];
      for (std::size_t k = 0; k < K; ++k) {
        const double b = B[k * ldb + n0];
        acc0 += a0p[k * sak] * b;
        acc1 += a1p[k * sak] * b;
        acc2 += a2p[k * sak] * b;
        acc3 += a3p[k * sak] * b;
      }
      r0[n0] = acc0;
      r1[n0] = acc1;
      r2[n0] = acc2;
      r3[n0] = acc3;
    }
  }
  for (; m0 < M; ++m0) {
    for (std::size_t n = 0; n < N; ++n) {
      double acc = C[m0 * ldc + n];
      for (std::size_t k = 0; k < K; ++k) {
        acc += A[m0 * sam + k * sak] * B[k * ldb + n];
      }
      C[m0 * ldc + n] = acc;
    }
  }
}
#else
// Same ascending-k accumulation, no explicit tiling.
void gemm_acc(std::size_t M, std::size_t K, std::size_t N, const double* A,
              std::size_t sam, std::size_t sak, const double* B,
              std::size_t ldb, double* C, std::size_t ldc) {
  for (std::size_t m = 0; m < M; ++m) {
    for (std::size_t n = 0; n < N; ++n) {
      double acc = C[m * ldc + n];
      for (std::size_t k = 0; k < K; ++k) {
        acc += A[m * sam + k * sak] * B[k * ldb + n];
      }
      C[m * ldc + n] = acc;
    }
  }
}
#endif

}  // namespace

namespace detail {
const Ops kPortableOps = {gemm_acc, adam_step, soft_update};
}  // namespace detail

}  // namespace autohet::rl::kernels
