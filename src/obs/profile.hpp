// Attribution profiler: per-layer / per-unit activity counters recorded
// while a plan is evaluated, scheduled, or functionally executed.
//
// The profiler answers "where did the cycles, MVMs, and cell writes go?"
// at (kind, layer, unit) granularity — `unit` is a kind-specific index
// (crossbar index for programming writes, pipeline stage for schedule
// counters, 0 when unused). Counts are recorded into 16 mutex-sharded
// maps keyed by the same dense thread index the metrics registry uses, so
// concurrent Monte-Carlo trials never contend on one lock; `snapshot()`
// merges the shards into a single sorted record list, making the result
// independent of thread count and interleaving.
//
// Contract (mirrors metrics.hpp / trace.hpp):
//   * disabled by default — every OBS_PROFILE_RECORD costs one relaxed
//     atomic load until `Profiler::global().enable()` runs;
//   * compiled out entirely under -DAUTOHET_OBS=OFF (see obs/obs.hpp);
//   * snapshots are deterministic: same work => same records, regardless
//     of mc_threads, kernel variant, or scheduling order.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace autohet::obs {

/// What a recorded count measures. Values are stable (serialized to the
/// raw profile-records JSON); append new kinds at the end.
enum class ProfileKind : std::uint8_t {
  kAnalyticEval = 0,  ///< evaluate_plan costed a layer (unit 0)
  kPlanEval = 1,      ///< a whole-plan analytic evaluation (layer/unit -1/0)
  kFunctionalMvm = 2,  ///< functional-sim MVMs issued for a layer (unit 0)
  kProgramWrite = 3,   ///< cell writes into crossbar `unit` of a layer
  kMcTrial = 4,        ///< Monte-Carlo trials completed (layer/unit -1/0)
  kScheduleTask = 5,   ///< batch-schedule tasks issued to stage `layer`
  kStageBusyNs = 6,    ///< rounded busy nanoseconds of pipeline stage `layer`
  kModelSwap = 7,      ///< serving fabric programmed model `layer` (unit 0)
};

inline constexpr std::size_t kProfileKindCount = 8;

/// Stable lower_snake_case name used in JSON output.
const char* profile_kind_name(ProfileKind kind) noexcept;

struct ProfileRecord {
  ProfileKind kind = ProfileKind::kAnalyticEval;
  std::int64_t layer = 0;  ///< mappable-layer index, or -1 for whole-plan
  std::int64_t unit = 0;   ///< kind-specific sub-index (crossbar, stage, …)
  std::uint64_t value = 0;

  friend bool operator==(const ProfileRecord&, const ProfileRecord&) = default;
};

/// Merged, deterministic view of everything recorded so far. Records are
/// sorted by (kind, layer, unit); lookups are linear — snapshots are
/// report-time objects, not hot-path ones.
struct ProfileSnapshot {
  std::vector<ProfileRecord> records;

  /// Sum over all records of `kind`.
  std::uint64_t total(ProfileKind kind) const noexcept;
  /// Sum over all records of `kind` attributed to `layer`.
  std::uint64_t layer_total(ProfileKind kind, std::int64_t layer) const
      noexcept;
  /// Exact (kind, layer, unit) count, 0 when absent.
  std::uint64_t value(ProfileKind kind, std::int64_t layer,
                      std::int64_t unit = 0) const noexcept;

  friend bool operator==(const ProfileSnapshot&,
                         const ProfileSnapshot&) = default;
};

/// Process-wide profiler singleton. Use through OBS_PROFILE_RECORD on hot
/// paths; direct calls are fine for setup/teardown code (CLI, tests).
class Profiler {
 public:
  static Profiler& global();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }

  /// Adds `delta` to the (kind, layer, unit) counter. Thread-safe;
  /// callers normally gate on enabled() via the macro.
  void record(ProfileKind kind, std::int64_t layer, std::int64_t unit,
              std::uint64_t delta);

  /// Merges all shards into one sorted record list. Safe to call while
  /// other threads record (they land in this or a later snapshot whole —
  /// per-record counts never tear).
  ProfileSnapshot snapshot() const;

  /// Drops all recorded counts (keeps the enabled flag). For tests and
  /// the CLI's per-phase accounting.
  void reset();

 private:
  Profiler() = default;

  struct Key {
    std::uint8_t kind;
    std::int64_t layer;
    std::int64_t unit;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::map<Key, std::uint64_t> counts;
  };

  std::atomic<bool> enabled_{false};
  std::array<Shard, 16> shards_;
};

}  // namespace autohet::obs
