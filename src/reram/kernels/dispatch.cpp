// Runtime dispatch of the reram kernel table: its variant list and CPUID
// rule on common::KernelDispatch. The selected variant index is exported as
// the `autohet_kernel_dispatch` gauge (0 = portable, 1 = avx2, 2 = avx512).
#include "obs/obs.hpp"
#include "reram/kernels/kernels.hpp"

namespace autohet::reram::kernels {
namespace {

bool cpu_supports([[maybe_unused]] Variant v) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (v == Variant::kAvx2) return __builtin_cpu_supports("avx2") != 0;
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0 &&
         __builtin_cpu_supports("avx512vpopcntdq") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
#else
  return false;
#endif
}

constinit common::KernelDispatch<Ops> g_dispatch(
    "reram", {&detail::kPortableOps, &detail::kAvx2Ops, &detail::kAvx512Ops},
    [](const Ops& t) { return t.bit_serial_mvm != nullptr; }, cpu_supports,
    []([[maybe_unused]] Variant v) {
      OBS_GAUGE_SET("autohet_kernel_dispatch", static_cast<int>(v));
    });

}  // namespace

const Ops& ops() { return g_dispatch.ops(); }
Variant active_variant() { return g_dispatch.active_variant(); }
bool supported(Variant v) { return g_dispatch.supported(v); }
std::vector<Variant> supported_variants() {
  return g_dispatch.supported_variants();
}
void set_variant(Variant v) { g_dispatch.set_variant(v); }

}  // namespace autohet::reram::kernels
