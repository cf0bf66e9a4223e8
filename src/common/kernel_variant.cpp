#include "common/kernel_variant.hpp"

#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace autohet::common {

const char* kernel_variant_name(KernelVariant v) {
  static constexpr const char* kNames[kKernelVariantCount] = {
      "portable", "avx2", "avx512"};
  return kNames[static_cast<int>(v)];
}

std::optional<KernelVariant> kernel_variant_from_name(std::string_view name) {
  for (int i = 0; i < kKernelVariantCount; ++i) {
    const auto v = static_cast<KernelVariant>(i);
    if (name == kernel_variant_name(v)) return v;
  }
  return std::nullopt;
}

std::optional<KernelVariant> kernel_env_override() {
  const char* env = std::getenv("AUTOHET_KERNEL");
  if (env == nullptr || *env == '\0') return std::nullopt;
  const std::optional<KernelVariant> v = kernel_variant_from_name(env);
  AUTOHET_CHECK(v, std::string("AUTOHET_KERNEL: unknown kernel variant '") +
                       env + "' (want portable, avx2 or avx512)");
  return v;
}

}  // namespace autohet::common
