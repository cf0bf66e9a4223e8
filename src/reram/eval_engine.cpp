#include "reram/eval_engine.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/error.hpp"
#include "mapping/layer_mapping.hpp"
#include "mapping/plan.hpp"
#include "mapping/tile_allocator.hpp"
#include "obs/obs.hpp"

namespace autohet::reram {

namespace {
/// Engine-wide metric names (one registry series across engines; the
/// per-engine split stays available via cache_stats()).
[[maybe_unused]] constexpr const char* kHits =
    "autohet_eval_cache_hits_total";
[[maybe_unused]] constexpr const char* kMisses =
    "autohet_eval_cache_misses_total";
[[maybe_unused]] constexpr const char* kEvictions =
    "autohet_eval_cache_evictions_total";

/// Counts `evicted` report-memo evictions on `stats` and in the registry.
void count_evictions(EvaluationEngine::CacheStats& stats,
                     std::size_t evicted) {
  stats.evictions += evicted;
  if (evicted > 0) OBS_COUNTER_ADD(kEvictions, evicted);
}
}  // namespace

EvaluationEngine::EvaluationEngine(
    std::vector<nn::LayerSpec> layers,
    std::vector<mapping::CrossbarShape> candidates, AcceleratorConfig accel)
    : layers_(std::move(layers)),
      candidates_(std::move(candidates)),
      accel_(accel),
      memo_(kMemoCapacity) {
  accel_.validate();
  AUTOHET_CHECK(!candidates_.empty(),
                "evaluation engine needs at least one candidate");
  for (const auto& layer : layers_) {
    AUTOHET_CHECK(nn::is_mappable(layer.type),
                  "evaluation engine layers must be CONV/FC");
  }

  const std::int64_t xpt = accel_.pes_per_tile;
  cand_info_.reserve(candidates_.size());
  for (const auto& shape : candidates_) {
    CandidateInfo info;
    info.shape = shape;
    info.tile_area = tile_area_contribution(shape, accel_.device, xpt);
    info.cells_per_tile = xpt * shape.cells();
    cand_info_.push_back(info);
  }

  // The L×C table: per-layer reports are action-independent because the
  // allocator assigns each layer ceil(needed / pes_per_tile) exclusive
  // tiles regardless of what the other layers chose (tile sharing later
  // releases tiles but LayerReport::tiles is defined pre-sharing).
  table_.reserve(layers_.size() * candidates_.size());
  for (const auto& layer : layers_) {
    for (const auto& shape : candidates_) {
      LayerCandidate lc;
      const mapping::LayerMapping m = mapping::map_layer(layer, shape);
      const std::int64_t needed = m.logical_crossbars();
      lc.tiles = (needed + xpt - 1) / xpt;
      lc.last_tile_empty = lc.tiles * xpt - needed;
      lc.useful_cells = m.useful_cells;
      lc.report =
          evaluate_layer(layer, m, lc.tiles, accel_.device, accel_.faults);
      table_.push_back(std::move(lc));
    }
  }
}

void EvaluationEngine::check_actions(
    const std::vector<std::size_t>& actions) const {
  AUTOHET_CHECK(actions.size() == layers_.size(),
                "one action per layer required");
  for (std::size_t a : actions) {
    AUTOHET_CHECK(a < candidates_.size(), "action index out of range");
  }
}

const LayerReport& EvaluationEngine::layer_report(std::size_t layer,
                                                  std::size_t candidate) const {
  AUTOHET_CHECK(layer < layers_.size(), "layer index out of range");
  AUTOHET_CHECK(candidate < candidates_.size(),
                "candidate index out of range");
  return cell(layer, candidate).report;
}

NetworkReport EvaluationEngine::compute(
    const std::vector<std::size_t>& actions) const {
  OBS_SPAN("eval_compute");
  const std::size_t n = layers_.size();
  const std::int64_t xpt = accel_.pes_per_tile;

  NetworkReport report;
  report.layers.reserve(n);
  std::vector<double> layer_vuln;
  layer_vuln.reserve(n);
  for (std::size_t l = 0; l < n; ++l) {
    const LayerCandidate& e = cell(l, actions[l]);
    report.energy += e.report.energy;
    report.latency_ns += e.report.latency_ns;
    layer_vuln.push_back(e.report.fault_vulnerability);
    report.layers.push_back(e.report);
  }
  // Same aggregation, same layer order as plan::evaluate_plan.
  report.fault_vulnerability = aggregate_network_vulnerability(layer_vuln);

  // ---- tile accounting on the compact per-layer summary ----
  // Algorithm 1 only touches a layer's partly filled last tile
  // (mapping::drain_partial_tiles); ids are assigned consecutively per
  // layer, exactly as the allocator numbers them, and the partials stay in
  // layer order.
  std::int64_t total_tiles = 0;
  std::vector<mapping::PartialTile> partials;
  partials.reserve(n);
  for (std::size_t l = 0; l < n; ++l) {
    const LayerCandidate& e = cell(l, actions[l]);
    if (e.last_tile_empty > 0) {
      partials.push_back({total_tiles + e.tiles - 1, e.last_tile_empty,
                          cand_info_[actions[l]].shape});
    }
    total_tiles += e.tiles;
  }

  std::int64_t released_tiles = 0;
  if (accel_.tile_shared && !partials.empty()) {
    OBS_SPAN("tile_shared_remap");
    OBS_COUNTER_ADD("autohet_tile_remap_passes_total", 1);
    released_tiles = mapping::drain_partial_tiles(partials, xpt);
  }
  OBS_COUNTER_ADD("autohet_tiles_released_total",
                  static_cast<std::uint64_t>(released_tiles));
  std::int64_t empty_xbs = 0;
  for (const auto& p : partials) {
    if (!p.released) empty_xbs += p.empty_xbs;
  }

  // ---- area: same per-tile contributions, same tile-id order ----
  std::int64_t useful_cells = 0;
  std::int64_t allocated_cells = 0;
  auto partial = partials.cbegin();
  for (std::size_t l = 0; l < n; ++l) {
    const LayerCandidate& e = cell(l, actions[l]);
    const CandidateInfo& info = cand_info_[actions[l]];
    const bool last_tile_released =
        e.last_tile_empty > 0 && (partial++)->released;
    const std::int64_t survivors = e.tiles - (last_tile_released ? 1 : 0);
    useful_cells += e.useful_cells;
    allocated_cells += survivors * info.cells_per_tile;
    for (std::int64_t t = 0; t < survivors; ++t) {
      report.area += info.tile_area;
    }
  }
  report.occupied_tiles = total_tiles - released_tiles;
  report.empty_crossbars = empty_xbs;
  report.utilization =
      allocated_cells > 0 ? static_cast<double>(useful_cells) /
                                static_cast<double>(allocated_cells)
                          : 0.0;
  return report;
}

NetworkReport EvaluationEngine::evaluate(
    const std::vector<std::size_t>& actions) const {
  check_actions(actions);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const NetworkReport* hit = memo_.find(actions)) {
      ++stats_.hits;
      OBS_COUNTER_ADD(kHits, 1);
      OBS_TRACE_COUNTER("eval_cache_hit_rate", stats_.hit_rate());
      return *hit;
    }
    ++stats_.misses;
    OBS_COUNTER_ADD(kMisses, 1);
    OBS_TRACE_COUNTER("eval_cache_hit_rate", stats_.hit_rate());
  }
  NetworkReport report = compute(actions);
  const std::lock_guard<std::mutex> lock(mutex_);
  count_evictions(stats_, memo_.insert(actions, report));
  return report;
}

RobustnessReport EvaluationEngine::evaluate_robustness(
    const nn::Model& model, const std::vector<std::size_t>& actions,
    const FaultConfig& faults, const RobustnessOptions& options) const {
  check_actions(actions);
  AUTOHET_CHECK(model.spec().mappable_layers().size() == layers_.size(),
                "model mappable layers must match engine layers");
  std::vector<mapping::CrossbarShape> shapes;
  shapes.reserve(actions.size());
  for (std::size_t a : actions) shapes.push_back(candidates_[a]);
  RobustnessOptions effective = options;
  // Sweeps that revisit one configuration across fault grids reuse the
  // engine's reference cache (byte-identical reports, see
  // TrialFabricCache); callers can still pass their own cache.
  if (effective.cache == nullptr) effective.cache = &mc_cache_;
  return monte_carlo_robustness(model, shapes, faults, effective);
}

std::size_t EvaluationEngine::RobustnessKeyHash::operator()(
    const RobustnessKey& k) const noexcept {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  mix(k.model);
  mix(plan::fault_fingerprint(k.faults));
  mix(static_cast<std::uint64_t>(k.trials));
  mix(static_cast<std::uint64_t>(k.samples));
  mix(k.input_seed);
  mix(static_cast<std::uint64_t>(k.budget.mode));
  mix(std::bit_cast<std::uint64_t>(k.budget.ci_halfwidth));
  mix(static_cast<std::uint64_t>(k.budget.min_trials));
  mix(static_cast<std::uint64_t>(k.budget.max_trials));
  mix(static_cast<std::uint64_t>(k.budget.chunk_trials));
  return static_cast<std::size_t>(h);
}

RobustnessReport EvaluationEngine::evaluate_robustness_cached(
    const nn::Model& model, const std::vector<std::size_t>& actions,
    const FaultConfig& faults, const RobustnessOptions& options) const {
  check_actions(actions);
  const RobustnessKey key{model.identity(),   faults,
                          options.trials,     options.samples,
                          options.input_seed, options.budget};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const RobustnessReport* hit = rob_memo_.find(key)) {
      ++rob_stats_.hits;
      OBS_COUNTER_ADD("autohet_mc_memo_hits_total", 1);
      return *hit;
    }
    ++rob_stats_.misses;
    OBS_COUNTER_ADD("autohet_mc_memo_misses_total", 1);
  }
  const RobustnessReport report =
      evaluate_robustness(model, actions, faults, options);
  const std::lock_guard<std::mutex> lock(mutex_);
  rob_stats_.evictions += rob_memo_.insert(key, report);
  return report;
}

EvaluationEngine::CacheStats EvaluationEngine::cache_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

EvaluationEngine::CacheStats EvaluationEngine::robustness_cache_stats()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rob_stats_;
}

void EvaluationEngine::clear_cache() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  memo_.clear();
  stats_ = CacheStats{};
  rob_memo_.clear();
  rob_stats_ = CacheStats{};
}

}  // namespace autohet::reram
