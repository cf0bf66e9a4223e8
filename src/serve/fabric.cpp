#include "serve/fabric.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/model_zoo.hpp"
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

ServingFabric::ServingFabric(std::vector<plan::DeploymentPlan> plans,
                             FabricConfig config, common::ThreadPool* pool)
    : config_(config), plans_(std::move(plans)) {
  AUTOHET_CHECK(!plans_.empty(), "need at least one plan");
  const std::size_t n = plans_.size();
  for (const plan::DeploymentPlan& p : plans_) {
    AUTOHET_CHECK(
        p.allocation.xbs_per_tile == plans_[0].allocation.xbs_per_tile,
        "all plans must share the accelerator's crossbars-per-tile");
  }

  reports_.resize(n);
  program_costs_.resize(n);
  standalone_tiles_.assign(n, 0);
  resident_specs_.resize(n);
  is_resident_.assign(n, false);
  swap_ins_.assign(n, 0);
  evictions_.assign(n, 0);
  last_use_.assign(n, -1);
  use_count_.assign(n, 0);
  models_.resize(n);
  fabrics_.resize(n);

  for (std::size_t m = 0; m < n; ++m) {
    resident_specs_[m].name = plans_[m].network.empty()
                                  ? "model" + std::to_string(m)
                                  : plans_[m].network;
    resident_specs_[m].layers = plans_[m].layers;
    resident_specs_[m].shapes = plans_[m].shapes();
  }

  // Per-model precompute: pure functions of the plan, stored by index, so
  // running them across a pool cannot change any observable result.
  const auto precompute = [&](std::size_t m) {
    reports_[m] = plan::evaluate_plan(plans_[m]);
    program_costs_[m] = reram::evaluate_programming(
        plans_[m].allocation, plans_[m].accel.device, config_.programming,
        plans_[m].accel.faults);
  };
  if (pool != nullptr && pool->size() > 1 && n > 1) {
    pool->parallel_for(0, n, precompute);
  } else {
    for (std::size_t m = 0; m < n; ++m) precompute(m);
  }

  for (std::size_t m = 0; m < n; ++m) {
    standalone_tiles_[m] =
        footprint({static_cast<std::int64_t>(m)});
    AUTOHET_CHECK(
        config_.tile_capacity == 0 ||
            standalone_tiles_[m] <= config_.tile_capacity,
        "plan '" + resident_specs_[m].name +
            "' does not fit the tile budget even alone (" +
            std::to_string(standalone_tiles_[m]) + " > " +
            std::to_string(config_.tile_capacity) + " tiles)");
  }

  if (config_.functional) {
    for (std::size_t m = 0; m < n; ++m) {
      // DAG (v2) plans carry their graph, which the model executes.
      common::Rng weight_rng(config_.weight_seed);
      models_[m] =
          plans_[m].has_graph()
              ? std::make_unique<nn::Model>(plans_[m].graph, weight_rng)
              : std::make_unique<nn::Model>(
                    nn::network_by_name(plans_[m].network), weight_rng);
      AUTOHET_CHECK(models_[m]->graph().node_count() > 0,
                    "functional serving requires a sequentially runnable "
                    "network: " + plans_[m].network);
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

bool ServingFabric::resident(std::int64_t m) const {
  return is_resident_.at(static_cast<std::size_t>(m));
}

std::vector<std::int64_t> ServingFabric::resident_models() const {
  std::vector<std::int64_t> out;
  for (std::size_t m = 0; m < is_resident_.size(); ++m) {
    if (is_resident_[m]) out.push_back(static_cast<std::int64_t>(m));
  }
  return out;
}

std::int64_t ServingFabric::resident_tiles() const {
  const std::vector<std::int64_t> models = resident_models();
  if (models.empty()) return 0;
  return footprint(models);
}

std::int64_t ServingFabric::footprint(
    const std::vector<std::int64_t>& models) const {
  const auto it = footprint_memo_.find(models);
  if (it != footprint_memo_.end()) return it->second;
  std::vector<mapping::ResidentModel> resident;
  resident.reserve(models.size());
  for (const std::int64_t m : models) {
    resident.push_back(resident_specs_.at(static_cast<std::size_t>(m)));
  }
  const mapping::MultiModelResult result =
      mapping::MultiModelAllocator(plans_[0].allocation.xbs_per_tile,
                                   config_.scope)
          .allocate(resident);
  const std::int64_t tiles = result.occupied_tiles();
  footprint_memo_.emplace(models, tiles);
  return tiles;
}

std::int64_t ServingFabric::pick_victim() const {
  std::int64_t victim = -1;
  for (std::size_t m = 0; m < is_resident_.size(); ++m) {
    if (!is_resident_[m]) continue;
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
  if (is_resident_[sm]) return result;

  if (config_.tile_capacity > 0) {
    for (;;) {
      std::vector<std::int64_t> candidate = resident_models();
      candidate.insert(
          std::lower_bound(candidate.begin(), candidate.end(), m), m);
      if (footprint(candidate) <= config_.tile_capacity) break;
      const std::int64_t victim = pick_victim();
      AUTOHET_CHECK(victim >= 0,
                    "resident set cannot fit the tile budget");
      const auto sv = static_cast<std::size_t>(victim);
      is_resident_[sv] = false;
      fabrics_[sv].reset();
      ++evictions_[sv];
      result.evicted.push_back(victim);
    }
  }

  // Program the incoming model: full-allocation write cost, and in
  // functional mode a real fabric (MappedLayer records kProgramWrite per
  // crossbar as it programs).
  const reram::ProgrammingReport& cost = program_costs_[sm];
  result.swapped_in = true;
  result.program_latency_ns = cost.latency_ns;
  result.program_energy_nj = cost.energy_nj;
  if (config_.functional) {
    fabrics_[sm] = std::make_unique<reram::SimulatedModel>(*models_[sm],
                                                           plans_[sm]);
  }
  is_resident_[sm] = true;
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
