// Portable kernel variant: plain C++ word loops under the project's
// baseline compiler flags. Always compiled in; the dispatch fallback, the
// AUTOHET_KERNEL=portable CI baseline, and the denominator of the bench's
// packed-vs-portable throughput ratio.
#include <bit>
#include <cstdint>

#include "reram/kernels/kernels.hpp"

#include "reram/kernels/kernel_ops.inl"

namespace autohet::reram::kernels {
namespace {

struct PortableCore {
  // The baseline x86-64 target auto-vectorizes int32 loops 128 bits wide.
  static constexpr std::int64_t kLanes = 4;
  static std::int64_t weighted_popcount(const std::uint64_t* x8,
                                        const std::uint64_t* p,
                                        std::int64_t words) {
    std::int64_t n = 0;
    for (int xb = 0; xb < 8; ++xb) {
      const std::uint64_t* x = x8 + xb * words;
      std::int64_t c = 0;
      for (std::int64_t w = 0; w < words; ++w) {
        c += std::popcount(x[w] & p[w]);
      }
      n += c << xb;
    }
    return n;
  }
  static void madd(std::int32_t* acc, const std::uint8_t* xs, std::int32_t w,
                   std::int64_t count) {
    for (std::int64_t s = 0; s < count; ++s) {
      acc[s] += w * static_cast<std::int32_t>(xs[s]);
    }
  }
  static void madd_row(std::int32_t* acc, const std::int8_t* w,
                       std::int32_t x, std::int64_t cols) {
    for (std::int64_t j = 0; j < cols; ++j) {
      acc[j] += x * static_cast<std::int32_t>(w[j]);
    }
  }
};

void bit_serial_mvm(const std::uint64_t* planes, std::int64_t cols,
                    std::int64_t words, const std::uint64_t* xbits,
                    std::int64_t count, std::int32_t* acc_t) {
  detail::bit_serial_mvm_impl<PortableCore>(planes, cols, words, xbits, count,
                                            acc_t);
}

void reference_batch(const std::int8_t* cells, std::int64_t rows,
                     std::int64_t cols, const std::uint8_t* inputs_t,
                     std::int64_t count, std::int32_t* acc_t) {
  detail::reference_batch_impl<PortableCore>(cells, rows, cols, inputs_t,
                                             count, acc_t);
}

}  // namespace

namespace detail {
const Ops kPortableOps = {"portable", bit_serial_mvm, reference_batch};
}  // namespace detail

}  // namespace autohet::reram::kernels
