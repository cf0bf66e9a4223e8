// Memoized, thread-safe hardware evaluation engine.
//
// Every DDPG episode, every baseline sweep, and every figure benchmark
// funnels through one question: "what does configuration (a_1..a_L) cost?"
// Across thousands of episodes there are only L×C distinct per-layer
// evaluations (layer energy/latency/utilization depend only on the layer,
// the candidate shape, and the device parameters — not on the rest of the
// action vector), and full configurations repeat heavily once a search
// converges. The engine exploits both:
//
//   1. An L×C table of `LayerReport`s is precomputed once at construction
//      (the allocator's per-layer tile count is action-independent: it is
//      ceil(logical_crossbars / pes_per_tile) before sharing).
//   2. Network-level aggregation (area of surviving tiles, tile-shared
//      draining, system utilization) runs on a compact per-layer summary —
//      only each layer's one partially-filled tile can be drained by
//      Algorithm 1, so the allocator's own two-pointer core
//      (`mapping::drain_tiles`) runs on at most L tiles instead of
//      materializing every `Tile`.
//   3. Full `NetworkReport`s are memoized in an LRU keyed by the action
//      vector.
//
// Determinism contract: results are bit-identical to
// `plan::evaluate_plan` on the plan compiled from the same action vector,
// whose full tile allocator is the reference. The per-layer reports come
// from the same `evaluate_layer` with the same arguments; the area sums fold
// the same `tile_area_contribution` values in the same tile-id order;
// utilization divides the same exact integer sums. Tested field-by-field in
// tests/test_eval_engine.cpp.
//
// Thread-safety contract: after construction the L×C table and all derived
// per-candidate constants are immutable; the only mutable state is the LRU
// memo (+ its hit/miss/eviction counters), guarded by an internal mutex.
// `evaluate()` is safe to call concurrently from any thread; uncached
// computation itself runs lock-free. The engine owns no threads: callers
// that want parallel evaluation call `evaluate()` from their own.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "mapping/crossbar_shape.hpp"
#include "nn/layer.hpp"
#include "reram/functional.hpp"
#include "reram/hardware_model.hpp"
#include "reram/memo.hpp"

namespace autohet::reram {

class EvaluationEngine {
 public:
  /// Precomputes the L×C `LayerReport` table. `layers` must contain only
  /// mappable layers; `candidates` is the action space.
  EvaluationEngine(std::vector<nn::LayerSpec> layers,
                   std::vector<mapping::CrossbarShape> candidates,
                   AcceleratorConfig accel);

  std::size_t num_layers() const noexcept { return layers_.size(); }
  std::size_t num_candidates() const noexcept { return candidates_.size(); }
  const AcceleratorConfig& accel() const noexcept { return accel_; }

  /// The precomputed per-layer report for (layer, candidate) — exactly what
  /// `evaluate_layer` returns for that pair (used by the greedy baseline
  /// and the Fig. 5 bench).
  const LayerReport& layer_report(std::size_t layer,
                                  std::size_t candidate) const;

  /// Full-network evaluation of one action vector; bit-identical to
  /// `plan::evaluate_plan` on the plan compiled from the same shapes.
  /// Memoized.
  NetworkReport evaluate(const std::vector<std::size_t>& actions) const;

  /// Monte-Carlo accuracy-under-faults of one action vector: maps each
  /// action to its candidate shape and runs `monte_carlo_robustness` on the
  /// functional fabric. `model`'s mappable layers must match the engine's
  /// layer count (same order). Reports are not memoized, but the engine
  /// passes its `TrialFabricCache` (unless `options.cache` is already set):
  /// fault sweeps that revisit one configuration across stuck-rate grids
  /// record each trial's burn-in once and replay it per rate point, and
  /// share the ideal references across the grid — byte-identical reports,
  /// large wall-time savings. Use the analytic `fault_vulnerability` in
  /// `evaluate()` reports for in-loop search feedback and this for the
  /// expensive ground truth.
  RobustnessReport evaluate_robustness(
      const nn::Model& model, const std::vector<std::size_t>& actions,
      const FaultConfig& faults, const RobustnessOptions& options = {}) const;

  /// Memoized evaluate_robustness for in-loop (per-episode) use: reports
  /// are cached in an LRU keyed by (model, allocation fingerprint,
  /// FaultConfig, budget knobs), so a search that revisits an allocation
  /// pays the Monte-Carlo cost once. Pair it with a small adaptive
  /// `RobustnessBudget` — the memo amortizes repeats, the budget bounds
  /// first-visit cost. Thread counts and kernel variants are deliberately
  /// not part of the key (reports are byte-identical across both).
  RobustnessReport evaluate_robustness_cached(
      const nn::Model& model, const std::vector<std::size_t>& actions,
      const FaultConfig& faults, const RobustnessOptions& options = {}) const;

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    double hit_rate() const noexcept {
      const double total = static_cast<double>(hits + misses);
      return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
    }
  };
  CacheStats cache_stats() const;
  /// Hit/miss/eviction counters of the evaluate_robustness_cached memo.
  CacheStats robustness_cache_stats() const;
  void clear_cache() const;

 private:
  // Per-(layer, candidate) action-independent precompute.
  struct LayerCandidate {
    LayerReport report;             ///< evaluate_layer output, verbatim
    std::int64_t useful_cells = 0;  ///< Cin·k²·Cout
    std::int64_t tiles = 0;         ///< ceil(logical_xbs / pes_per_tile)
    std::int64_t last_tile_empty = 0;  ///< free PEs in the layer's last tile
  };
  // Per-candidate constants.
  struct CandidateInfo {
    mapping::CrossbarShape shape;
    AreaBreakdown tile_area;
    std::int64_t cells_per_tile = 0;  ///< pes_per_tile × rows × cols
  };

  const LayerCandidate& cell(std::size_t layer, std::size_t cand) const {
    return table_[layer * candidates_.size() + cand];
  }

  /// Throws unless `actions` holds one in-range candidate index per layer.
  void check_actions(const std::vector<std::size_t>& actions) const;
  /// The uncached compute path (pure; lock-free).
  NetworkReport compute(const std::vector<std::size_t>& actions) const;

  std::vector<nn::LayerSpec> layers_;
  std::vector<mapping::CrossbarShape> candidates_;
  AcceleratorConfig accel_;
  std::vector<LayerCandidate> table_;   ///< L×C, row-major by layer
  std::vector<CandidateInfo> cand_info_;

  struct KeyHash {
    std::size_t operator()(const std::vector<std::size_t>& v) const noexcept {
      std::uint64_t h = 1469598103934665603ull;  // FNV-1a
      for (std::size_t x : v) {
        h ^= static_cast<std::uint64_t>(x);
        h *= 1099511628211ull;
      }
      return static_cast<std::size_t>(h);
    }
  };
  /// Everything evaluate_robustness_cached's result depends on. Thread /
  /// pool / cache knobs and the kernel variant are excluded on purpose:
  /// reports are byte-identical across them, so one memo serves every
  /// execution configuration.
  struct RobustnessKey {
    std::uint64_t model = 0;  ///< nn::Model::identity()
    std::vector<std::size_t> actions;
    FaultConfig faults;
    int trials = 0;
    int samples = 0;
    std::uint64_t input_seed = 0;
    RobustnessBudget budget;
    bool operator==(const RobustnessKey&) const = default;
  };
  struct RobustnessKeyHash {
    std::size_t operator()(const RobustnessKey& k) const noexcept;
  };
  /// Memoized NetworkReports (LRU-evicted).
  static constexpr std::size_t kMemoCapacity = 4096;
  /// Memoized RobustnessReports: sized for a search loop, where ~500
  /// episodes revisit far fewer distinct allocations once converged.
  static constexpr std::size_t kRobustnessMemoCapacity = 1024;

  // ---- the two report memos and their counters (guarded by mutex_) ----
  mutable std::mutex mutex_;
  mutable LruMemo<std::vector<std::size_t>, NetworkReport, KeyHash> memo_;
  mutable CacheStats stats_;
  mutable LruMemo<RobustnessKey, RobustnessReport, RobustnessKeyHash>
      rob_memo_{kRobustnessMemoCapacity};
  mutable CacheStats rob_stats_;

  /// Cross-call Monte-Carlo fabric cache for evaluate_robustness (its own
  /// internal locking; byte-identical reports — see TrialFabricCache).
  mutable TrialFabricCache mc_cache_;
  /// Cross-allocation per-layer fabric cache for
  /// evaluate_robustness_cached first visits (its own internal locking;
  /// bit-identical reports — see LayerFabricCache).
  mutable LayerFabricCache layer_cache_;
};

}  // namespace autohet::reram
