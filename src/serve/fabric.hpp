// Multi-tenant residency on one accelerator fabric.
//
// A ServingFabric owns several compiled DeploymentPlans and tracks which of
// them are currently programmed onto the fabric. Residency is bounded by a
// tile budget: the footprint of a candidate resident set is Algorithm 1's
// compact count (mapping::drain_partial_tiles) over the resident models'
// partly filled last tiles under the configured sharing scope, equal to
// allocate_tiles' occupied tiles for the same set, so cross-model tile
// sharing (§3.4's "tiles 2 and 3 become available for ... other models")
// directly buys extra co-residency. Footprints are memoized by resident-set
// bitset, so admitting a model allocates nothing once its set was seen. A
// request for a non-resident model evicts victims (LRU or LFU) until the
// set fits, then pays the crossbar-programming cost model
// (reram/programming.hpp) to bring the model in — the swap traffic the
// future endurance subsystem will consume (Hamun, PAPERS.md).
//
// Every plan is validated once, by evaluate_plan at construction; the plans
// are private and immutable after that, so the schedule inputs derived
// there (per-layer costs and dataflow) serve every later schedule.
//
// In functional mode every swap-in really programs a SimulatedModel fabric
// from the plan (recording ProfileKind::kProgramWrite per crossbar), so
// tests can check that a re-programmed model matches a fresh compile_plan
// fabric bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "mapping/plan.hpp"
#include "mapping/tile_allocator.hpp"
#include "nn/model.hpp"
#include "reram/functional.hpp"
#include "reram/programming.hpp"
#include "reram/scheduler.hpp"
#include "reram/stats.hpp"

namespace autohet::serve {

enum class EvictionPolicy {
  kLru,  ///< evict the least recently used resident model
  kLfu   ///< evict the least frequently used (ties broken by recency)
};

const char* eviction_policy_name(EvictionPolicy policy) noexcept;
EvictionPolicy eviction_policy_from_name(const std::string& name);

const char* sharing_scope_name(mapping::SharingScope scope) noexcept;
mapping::SharingScope sharing_scope_from_name(const std::string& name);

struct FabricConfig {
  /// Tile budget for the resident set; 0 = unbounded (everything stays
  /// resident after its cold load).
  std::int64_t tile_capacity = 0;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  /// Scope of Algorithm-1 tile sharing when computing residency footprints.
  mapping::SharingScope scope = mapping::SharingScope::kCrossModel;
  reram::ProgrammingParams programming{};
  /// Program a real SimulatedModel on every swap-in (requires sequentially
  /// runnable zoo networks; the models are reram::replay_model's, exactly
  /// like the CLI replay path). Analytic-only otherwise.
  bool functional = false;
};

/// Outcome of admitting one request's model.
struct AdmitResult {
  bool swapped_in = false;  ///< the model had to be programmed now
  /// Models evicted to make room (eviction_count / resident name them).
  std::int64_t evictions = 0;
  double program_latency_ns = 0.0;
  double program_energy_nj = 0.0;
};

class ServingFabric {
 public:
  /// All plans must target the same accelerator granularity (xbs_per_tile);
  /// each plan must fit the tile budget on its own. Per-model hardware
  /// reports and programming costs are precomputed here (optionally across
  /// `pool`; results are stored by model index, so the thread count never
  /// changes anything observable).
  ServingFabric(std::vector<plan::DeploymentPlan> plans, FabricConfig config,
                common::ThreadPool* pool = nullptr);

  std::int64_t model_count() const noexcept {
    return static_cast<std::int64_t>(plans_.size());
  }
  const FabricConfig& config() const noexcept { return config_; }
  const plan::DeploymentPlan& model_plan(std::int64_t m) const;
  /// Cached evaluate_plan report (per-inference energy/latency).
  const reram::NetworkReport& model_report(std::int64_t m) const;
  /// Cached full-programming cost of the model's allocation.
  const reram::ProgrammingReport& program_cost(std::int64_t m) const;
  /// Tiles the model occupies when resident alone.
  std::int64_t standalone_tiles(std::int64_t m) const;
  /// reram::schedule_batch of `batch` images on the model's schedule
  /// inputs, derived once from its plan at construction.
  reram::ScheduleReport schedule(std::int64_t m, std::int64_t batch) const;

  bool resident(std::int64_t m) const;
  std::vector<std::int64_t> resident_models() const;  ///< sorted
  /// Footprint of the current resident set under the sharing scope.
  std::int64_t resident_tiles() const;

  /// Touches model `m` (LRU/LFU bookkeeping) and makes it resident,
  /// evicting victims and paying the programming cost on a miss. Every
  /// programming event — the cold load included — counts as a swap-in.
  AdmitResult admit(std::int64_t m);

  std::int64_t swap_in_count(std::int64_t m) const;
  std::int64_t eviction_count(std::int64_t m) const;

  /// Functional-mode resident fabric (nullptr when analytic-only or when
  /// the model is not resident).
  const reram::SimulatedModel* resident_fabric(std::int64_t m) const;
  /// Functional-mode seeded model (weights), nullptr when analytic-only.
  const nn::Model* model_weights(std::int64_t m) const;

 private:
  /// Resident-set bitset: bit m of word m / 64 is model m.
  using ModelSet = std::vector<std::uint64_t>;

  /// Memoized footprint of an arbitrary model set (0 when empty).
  std::int64_t footprint(const ModelSet& models) const;
  std::int64_t pick_victim() const;

  FabricConfig config_;
  std::vector<plan::DeploymentPlan> plans_;
  std::vector<reram::NetworkReport> reports_;
  std::vector<reram::ProgrammingReport> program_costs_;
  std::vector<std::vector<plan::LayerCost>> layer_costs_;
  std::vector<plan::PlanDataflow> dataflows_;
  std::vector<std::int64_t> standalone_tiles_;
  /// Per model: its tile-based tile count and its layers' partly filled
  /// last tiles, with ids as allocate_tiles numbers them for the model
  /// alone.
  std::vector<std::int64_t> model_tiles_;
  std::vector<std::vector<mapping::PartialTile>> partials_;

  ModelSet resident_;
  ModelSet candidate_;  ///< admit's scratch set, sized like resident_
  std::vector<std::int64_t> swap_ins_;
  std::vector<std::int64_t> evictions_;
  std::vector<std::int64_t> last_use_;   ///< admit ordinal, -1 = never
  std::vector<std::int64_t> use_count_;
  std::int64_t use_ordinal_ = 0;

  // Functional mode: stable per-model weights plus the currently programmed
  // fabrics (reset on eviction, rebuilt on swap-in).
  std::vector<std::unique_ptr<nn::Model>> models_;
  std::vector<std::unique_ptr<reram::SimulatedModel>> fabrics_;

  mutable std::map<ModelSet, std::int64_t> footprint_memo_;
};

}  // namespace autohet::serve
