// ISA variants of the dispatching kernel tables.
//
// Two subsystems keep a per-ISA table of hot loops, one translation unit per
// variant compiled with that ISA's flags: reram::kernels (packed crossbar
// MVMs) and rl::kernels (the DDPG update's dense double-precision math).
// Each table has its own CPUID rules and its own active variant; both read
// the one override — the AUTOHET_KERNEL environment variable or a binary's
// `--kernel` flag — through the parsers below, so one name selects the same
// variant in both.
#pragma once

#include <optional>
#include <string_view>

namespace autohet::common {

enum class KernelVariant : int { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr int kKernelVariantCount = 3;

const char* kernel_variant_name(KernelVariant v);

/// Parses "portable" / "avx2" / "avx512" into *out; false on unknown names.
bool kernel_variant_from_name(std::string_view name, KernelVariant* out);

/// The AUTOHET_KERNEL override, or nullopt when unset or empty. Hard error
/// (AUTOHET_CHECK) on an unknown name.
std::optional<KernelVariant> kernel_env_override();

/// A `--kernel <name>` / `--kernel=<name>` override found anywhere on a raw
/// argv, or nullopt when absent. Hard error on an unknown name.
std::optional<KernelVariant> kernel_argv_override(int argc,
                                                  const char* const* argv);

}  // namespace autohet::common
