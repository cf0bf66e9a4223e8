// ISA variants of the dispatching kernel tables, and the dispatcher type
// both tables run on: reram::kernels (packed crossbar MVMs) and rl::kernels
// (the DDPG update's dense math), each one translation unit per variant
// compiled with that ISA's flags. Each table is one KernelDispatch with its
// own CPUID rule and active variant; both read the one AUTOHET_KERNEL
// override, so one name selects the same variant in both.
#pragma once

#include <array>
#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace autohet::common {

enum class KernelVariant : int { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr int kKernelVariantCount = 3;

const char* kernel_variant_name(KernelVariant v);

/// Parses "portable" / "avx2" / "avx512"; nullopt on unknown names.
std::optional<KernelVariant> kernel_variant_from_name(std::string_view name);

/// The AUTOHET_KERNEL override, or nullopt when unset or empty. Hard error
/// (AUTOHET_CHECK) on an unknown name.
std::optional<KernelVariant> kernel_env_override();

/// Runtime selection over one kernel table with a variant per ISA. A variant
/// is supported when its table is compiled in (`compiled` holds for it) and
/// the host CPU runs it (`cpu_supports`; portable always runs). First use
/// resolves AUTOHET_KERNEL — a hard error on an unknown or unsupported name,
/// since a forced run must never silently fall back — or else picks the best
/// supported variant. `on_activate`, when set, sees every activation.
///
/// Tables declare their instance `constinit` at namespace scope; ops() is a
/// call_once plus one acquire load.
template <typename Ops>
class KernelDispatch {
 public:
  using Tables = std::array<const Ops*, kKernelVariantCount>;

  constexpr KernelDispatch(const char* label, Tables tables,
                           bool (*compiled)(const Ops&),
                           bool (*cpu_supports)(KernelVariant),
                           void (*on_activate)(KernelVariant) = nullptr)
      : label_(label),
        tables_(tables),
        compiled_(compiled),
        cpu_supports_(cpu_supports),
        on_activate_(on_activate) {}

  /// The active table.
  const Ops& ops() { return *tables_[static_cast<int>(active_variant())]; }

  /// The variant ops() currently dispatches to.
  KernelVariant active_variant() {
    std::call_once(once_, [this] { resolve_initial(); });
    return static_cast<KernelVariant>(
        active_.load(std::memory_order_acquire));
  }

  /// True when `v` is compiled in *and* the host CPU supports it.
  bool supported(KernelVariant v) const {
    return compiled_(*tables_[static_cast<int>(v)]) &&
           (v == KernelVariant::kPortable || cpu_supports_(v));
  }

  /// Every supported variant, portable first.
  std::vector<KernelVariant> supported_variants() const {
    std::vector<KernelVariant> out;
    for (int i = 0; i < kKernelVariantCount; ++i) {
      const auto v = static_cast<KernelVariant>(i);
      if (supported(v)) out.push_back(v);
    }
    return out;
  }

  /// Forces the active variant. Hard error (AUTOHET_CHECK) when unsupported.
  void set_variant(KernelVariant v) {
    active_variant();  // resolve first use, so it cannot override `v` later
    check_supported(v, "");
    activate(v);
  }

 private:
  void resolve_initial() {
    const std::optional<KernelVariant> forced = kernel_env_override();
    if (forced) check_supported(*forced, "AUTOHET_KERNEL: ");
    activate(forced ? *forced : supported_variants().back());
  }

  void check_supported(KernelVariant v, const char* source) const {
    AUTOHET_CHECK(supported(v), std::string(source) + label_ +
                                    " kernel variant '" +
                                    kernel_variant_name(v) +
                                    "' is not supported on this host/build");
  }

  void activate(KernelVariant v) {
    active_.store(static_cast<int>(v), std::memory_order_release);
    if (on_activate_ != nullptr) on_activate_(v);
  }

  const char* label_;
  Tables tables_;
  bool (*compiled_)(const Ops&);
  bool (*cpu_supports_)(KernelVariant);
  void (*on_activate_)(KernelVariant);
  std::atomic<int> active_{-1};  // -1 = not yet resolved
  std::once_flag once_;
};

}  // namespace autohet::common
