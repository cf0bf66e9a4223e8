#include "serve/fabric.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace autohet::serve {

const char* eviction_policy_name(EvictionPolicy policy) noexcept {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kLfu:
      return "lfu";
  }
  return "lru";
}

EvictionPolicy eviction_policy_from_name(const std::string& name) {
  if (name == "lru") return EvictionPolicy::kLru;
  if (name == "lfu") return EvictionPolicy::kLfu;
  AUTOHET_CHECK(false, "unknown eviction policy: " + name);
  return EvictionPolicy::kLru;
}

const char* sharing_scope_name(mapping::SharingScope scope) noexcept {
  switch (scope) {
    case mapping::SharingScope::kNone:
      return "none";
    case mapping::SharingScope::kPerModel:
      return "per-model";
    case mapping::SharingScope::kCrossModel:
      return "cross-model";
  }
  return "cross-model";
}

mapping::SharingScope sharing_scope_from_name(const std::string& name) {
  if (name == "none") return mapping::SharingScope::kNone;
  if (name == "per-model") return mapping::SharingScope::kPerModel;
  if (name == "cross-model") return mapping::SharingScope::kCrossModel;
  AUTOHET_CHECK(false, "unknown sharing scope: " + name);
  return mapping::SharingScope::kCrossModel;
}

namespace {

constexpr std::size_t kWordBits = 64;

bool contains(const std::vector<std::uint64_t>& set, std::size_t m) {
  return ((set[m / kWordBits] >> (m % kWordBits)) & 1u) != 0;
}

void assign(std::vector<std::uint64_t>& set, std::size_t m, bool member) {
  const std::uint64_t bit = std::uint64_t{1} << (m % kWordBits);
  std::uint64_t& word = set[m / kWordBits];
  word = member ? word | bit : word & ~bit;
}

}  // namespace

ServingFabric::ServingFabric(std::vector<plan::DeploymentPlan> plans,
                             FabricConfig config, common::ThreadPool* pool)
    : config_(config), plans_(std::move(plans)) {
  AUTOHET_CHECK(!plans_.empty(), "need at least one plan");
  const std::size_t n = plans_.size();
  const std::int64_t xbs_per_tile = plans_[0].allocation.xbs_per_tile;
  for (const plan::DeploymentPlan& p : plans_) {
    AUTOHET_CHECK(p.allocation.xbs_per_tile == xbs_per_tile,
                  "all plans must share the accelerator's crossbars-per-tile");
  }

  reports_.resize(n);
  program_costs_.resize(n);
  layer_costs_.resize(n);
  dataflows_.resize(n);
  standalone_tiles_.assign(n, 0);
  model_tiles_.assign(n, 0);
  partials_.resize(n);
  resident_.assign((n + kWordBits - 1) / kWordBits, 0);
  candidate_ = resident_;
  swap_ins_.assign(n, 0);
  evictions_.assign(n, 0);
  last_use_.assign(n, -1);
  use_count_.assign(n, 0);
  models_.resize(n);
  fabrics_.resize(n);

  // Per-model precompute: pure functions of the plan, stored by index, so
  // running them across a pool cannot change any observable result.
  // evaluate_plan validates the plan (the fabric's only validation); the
  // rest reads the validated allocation.
  const auto precompute = [&](std::size_t m) {
    const plan::DeploymentPlan& p = plans_[m];
    reports_[m] = plan::evaluate_plan(p);
    program_costs_[m] = reram::evaluate_programming(
        p.allocation, p.accel.device, config_.programming, p.accel.faults);
    layer_costs_[m] = plan::plan_layer_costs(p);
    dataflows_[m] = plan::plan_dataflow(p);
    for (const mapping::LayerAllocation& layer : p.allocation.layers) {
      const std::int64_t empty = layer.tiles_allocated * xbs_per_tile -
                                 layer.mapping.logical_crossbars();
      if (empty > 0) {
        partials_[m].push_back({model_tiles_[m] + layer.tiles_allocated - 1,
                                empty, layer.mapping.shape});
      }
      model_tiles_[m] += layer.tiles_allocated;
    }
  };
  common::parallel_for(pool, 0, n, precompute);

  for (std::size_t m = 0; m < n; ++m) {
    ModelSet alone(resident_.size(), 0);
    assign(alone, m, true);
    standalone_tiles_[m] = footprint(alone);
    AUTOHET_CHECK(
        config_.tile_capacity == 0 ||
            standalone_tiles_[m] <= config_.tile_capacity,
        "plan '" +
            (plans_[m].network.empty() ? "model" + std::to_string(m)
                                       : plans_[m].network) +
            "' does not fit the tile budget even alone (" +
            std::to_string(standalone_tiles_[m]) + " > " +
            std::to_string(config_.tile_capacity) + " tiles)");
  }

  if (config_.functional) {
    for (std::size_t m = 0; m < n; ++m) {
      models_[m] =
          std::make_unique<nn::Model>(reram::replay_model(plans_[m]));
    }
  }
}

const plan::DeploymentPlan& ServingFabric::model_plan(std::int64_t m) const {
  return plans_.at(static_cast<std::size_t>(m));
}

const reram::NetworkReport& ServingFabric::model_report(
    std::int64_t m) const {
  return reports_.at(static_cast<std::size_t>(m));
}

const reram::ProgrammingReport& ServingFabric::program_cost(
    std::int64_t m) const {
  return program_costs_.at(static_cast<std::size_t>(m));
}

std::int64_t ServingFabric::standalone_tiles(std::int64_t m) const {
  return standalone_tiles_.at(static_cast<std::size_t>(m));
}

reram::ScheduleReport ServingFabric::schedule(std::int64_t m,
                                              std::int64_t batch) const {
  const auto sm = static_cast<std::size_t>(m);
  return reram::schedule_batch(layer_costs_.at(sm), dataflows_.at(sm), batch);
}

bool ServingFabric::resident(std::int64_t m) const {
  const auto sm = static_cast<std::size_t>(m);
  if (sm >= plans_.size()) throw std::out_of_range("model index out of range");
  return contains(resident_, sm);
}

std::vector<std::int64_t> ServingFabric::resident_models() const {
  std::vector<std::int64_t> out;
  for (std::size_t m = 0; m < plans_.size(); ++m) {
    if (contains(resident_, m)) out.push_back(static_cast<std::int64_t>(m));
  }
  return out;
}

std::int64_t ServingFabric::resident_tiles() const {
  return footprint(resident_);
}

std::int64_t ServingFabric::footprint(const ModelSet& models) const {
  const auto it = footprint_memo_.find(models);
  if (it != footprint_memo_.end()) return it->second;
  // The set's tile-based tiles, numbered as allocate_tiles numbers them
  // (model, then layer order), minus what Algorithm 1 drains from their
  // partial last tiles; per-model sharing groups by position in the set.
  std::vector<mapping::PartialTile> partials;
  std::int64_t total = 0;
  std::int64_t position = 0;
  for (std::size_t m = 0; m < plans_.size(); ++m) {
    if (!contains(models, m)) continue;
    for (mapping::PartialTile p : partials_[m]) {
      p.id += total;
      p.model =
          config_.scope == mapping::SharingScope::kPerModel ? position : 0;
      partials.push_back(p);
    }
    total += model_tiles_[m];
    ++position;
  }
  const std::int64_t released =
      config_.scope == mapping::SharingScope::kNone
          ? 0
          : mapping::drain_partial_tiles(partials,
                                         plans_[0].allocation.xbs_per_tile);
  const std::int64_t tiles = total - released;
  footprint_memo_.emplace(models, tiles);
  return tiles;
}

std::int64_t ServingFabric::pick_victim() const {
  std::int64_t victim = -1;
  for (std::size_t m = 0; m < plans_.size(); ++m) {
    if (!contains(resident_, m)) continue;
    const auto i = static_cast<std::int64_t>(m);
    if (victim < 0) {
      victim = i;
      continue;
    }
    const auto sv = static_cast<std::size_t>(victim);
    const bool better =
        config_.eviction == EvictionPolicy::kLfu
            ? (use_count_[m] < use_count_[sv] ||
               (use_count_[m] == use_count_[sv] &&
                last_use_[m] < last_use_[sv]))
            : last_use_[m] < last_use_[sv];
    if (better) victim = i;
  }
  return victim;
}

AdmitResult ServingFabric::admit(std::int64_t m) {
  const auto sm = static_cast<std::size_t>(m);
  AUTOHET_CHECK(m >= 0 && sm < plans_.size(), "model index out of range");
  last_use_[sm] = use_ordinal_++;
  ++use_count_[sm];

  AdmitResult result;
  if (contains(resident_, sm)) return result;

  if (config_.tile_capacity > 0) {
    for (;;) {
      candidate_ = resident_;  // same size: copies, never allocates
      assign(candidate_, sm, true);
      if (footprint(candidate_) <= config_.tile_capacity) break;
      const std::int64_t victim = pick_victim();
      AUTOHET_CHECK(victim >= 0,
                    "resident set cannot fit the tile budget");
      const auto sv = static_cast<std::size_t>(victim);
      assign(resident_, sv, false);
      fabrics_[sv].reset();
      ++evictions_[sv];
      ++result.evictions;
    }
  }

  // Program the incoming model: full-allocation write cost, and in
  // functional mode a real fabric (the plan constructor records
  // kProgramWrite per crossbar).
  const reram::ProgrammingReport& cost = program_costs_[sm];
  result.swapped_in = true;
  result.program_latency_ns = cost.latency_ns;
  result.program_energy_nj = cost.energy_nj;
  if (config_.functional) {
    fabrics_[sm] = std::make_unique<reram::SimulatedModel>(*models_[sm],
                                                           plans_[sm]);
  }
  assign(resident_, sm, true);
  ++swap_ins_[sm];
  OBS_PROFILE_RECORD(obs::ProfileKind::kModelSwap, m, 0, 1);
  OBS_COUNTER_ADD("autohet_serve_swaps_total", 1);
  return result;
}

std::int64_t ServingFabric::swap_in_count(std::int64_t m) const {
  return swap_ins_.at(static_cast<std::size_t>(m));
}

std::int64_t ServingFabric::eviction_count(std::int64_t m) const {
  return evictions_.at(static_cast<std::size_t>(m));
}

const reram::SimulatedModel* ServingFabric::resident_fabric(
    std::int64_t m) const {
  return fabrics_.at(static_cast<std::size_t>(m)).get();
}

const nn::Model* ServingFabric::model_weights(std::int64_t m) const {
  return models_.at(static_cast<std::size_t>(m)).get();
}

}  // namespace autohet::serve
