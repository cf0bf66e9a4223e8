#include "mapping/tile_allocator.hpp"

#include <algorithm>
#include <tuple>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace autohet::mapping {

std::int64_t AllocationResult::occupied_tiles() const {
  std::int64_t n = 0;
  for (const auto& tile : tiles) {
    if (!tile.released) ++n;
  }
  return n;
}

std::int64_t AllocationResult::total_logical_crossbars() const {
  return occupied_tiles() * xbs_per_tile;
}

std::int64_t AllocationResult::empty_crossbars() const {
  std::int64_t n = 0;
  for (const auto& tile : tiles) {
    if (!tile.released) n += tile.empty_xbs;
  }
  return n;
}

std::int64_t AllocationResult::useful_cells() const {
  std::int64_t n = 0;
  for (const auto& layer : layers) n += layer.mapping.useful_cells;
  return n;
}

std::int64_t AllocationResult::allocated_cells() const {
  std::int64_t n = 0;
  for (const auto& tile : tiles) {
    if (!tile.released) n += xbs_per_tile * tile.shape.cells();
  }
  return n;
}

double AllocationResult::system_utilization() const {
  const std::int64_t cells = allocated_cells();
  return cells > 0 ? static_cast<double>(useful_cells()) /
                         static_cast<double>(cells)
                   : 0.0;
}

CombMap tile_shared_remap(std::vector<Tile*>& tiles, std::int64_t xb_num) {
  AUTOHET_CHECK(xb_num > 0, "xb_num must be positive");
  OBS_SPAN("tile_shared_remap");
  OBS_COUNTER_ADD("autohet_tile_remap_passes_total", 1);
  CombMap comb_map;
  drain_tiles(tiles.begin(), tiles.end(), xb_num, [&](Tile& h, Tile& t) {
    h.layer_ids.insert(h.layer_ids.end(), t.layer_ids.begin(),
                       t.layer_ids.end());
    h.layer_xbs.insert(h.layer_xbs.end(), t.layer_xbs.begin(),
                       t.layer_xbs.end());
    t.layer_ids.clear();
    t.layer_xbs.clear();
    comb_map[h.id].push_back(t.id);
    OBS_COUNTER_ADD("autohet_tiles_released_total", 1);
  });
  return comb_map;
}

std::int64_t drain_partial_tiles(std::vector<PartialTile>& partials,
                                 std::int64_t xb_num) {
  AUTOHET_CHECK(xb_num > 0, "xb_num must be positive");
  const auto group = [](const PartialTile* p) {
    return std::tie(p->shape.rows, p->shape.cols, p->model);
  };
  std::vector<PartialTile*> order;
  order.reserve(partials.size());
  for (PartialTile& p : partials) order.push_back(&p);
  // Group order is irrelevant (groups drain independently); drain_tiles
  // orders each group by (empty, id) itself.
  std::sort(order.begin(), order.end(),
            [&](const PartialTile* a, const PartialTile* b) {
              return group(a) < group(b);
            });
  std::int64_t released = 0;
  for (auto first = order.begin(); first != order.end();) {
    const auto last =
        std::find_if(first, order.end(), [&](const PartialTile* p) {
          return group(p) != group(*first);
        });
    released += drain_tiles(first, last, xb_num,
                            [](PartialTile&, PartialTile&) {});
    first = last;
  }
  return released;
}

AllocationResult allocate_tiles(const std::vector<ResidentModel>& models,
                                std::int64_t xbs_per_tile, SharingScope scope) {
  AUTOHET_CHECK(xbs_per_tile > 0, "xbs_per_tile must be positive");
  AUTOHET_CHECK(!models.empty(), "at least one resident model required");
  OBS_SPAN("tile_alloc");
  AllocationResult result;
  result.xbs_per_tile = xbs_per_tile;

  // Tile-based allocation: exclusive, round-up tiles per layer.
  std::int64_t next_tile_id = 0;
  for (std::size_t mi = 0; mi < models.size(); ++mi) {
    const ResidentModel& model = models[mi];
    AUTOHET_CHECK(model.layers.size() == model.shapes.size(),
                  "layers and shapes must be the same length for model '" +
                      model.name + "'");
    AUTOHET_CHECK(
        static_cast<std::int64_t>(model.layers.size()) < kModelStride,
        "model too large for layer-id encoding");
    for (std::size_t li = 0; li < model.layers.size(); ++li) {
      LayerAllocation alloc;
      alloc.layer_id = static_cast<std::int64_t>(mi) * kModelStride +
                       static_cast<std::int64_t>(li);
      alloc.mapping = map_layer(model.layers[li], model.shapes[li]);
      const std::int64_t needed = alloc.mapping.logical_crossbars();
      alloc.tiles_allocated = (needed + xbs_per_tile - 1) / xbs_per_tile;
      std::int64_t remaining = needed;
      for (std::int64_t t = 0; t < alloc.tiles_allocated; ++t) {
        Tile tile;
        tile.id = next_tile_id++;
        tile.shape = model.shapes[li];
        const std::int64_t used = std::min(remaining, xbs_per_tile);
        tile.empty_xbs = xbs_per_tile - used;
        tile.layer_ids.push_back(alloc.layer_id);
        tile.layer_xbs.push_back(used);
        remaining -= used;
        result.tiles.push_back(std::move(tile));
      }
      result.layers.push_back(std::move(alloc));
    }
  }

  if (scope == SharingScope::kNone) return result;

  // Tile-shared pass: group by crossbar shape (layers may only share tiles
  // of identical crossbar size, §3.4) and, for per-model sharing, by model;
  // then run Algorithm 1 per group.
  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>,
           std::vector<Tile*>>
      groups;
  for (auto& tile : result.tiles) {
    const std::int64_t model_key = scope == SharingScope::kPerModel
                                       ? tile.layer_ids.front() / kModelStride
                                       : 0;
    groups[{tile.shape.rows, tile.shape.cols, model_key}].push_back(&tile);
  }
  for (auto& [key, group] : groups) {
    CombMap comb = tile_shared_remap(group, xbs_per_tile);
    for (auto& [receiver, drained] : comb) {
      auto& entry = result.remap[receiver];
      entry.insert(entry.end(), drained.begin(), drained.end());
    }
  }
  return result;
}

AllocationResult allocate_tiles(const std::vector<nn::LayerSpec>& layers,
                                const std::vector<CrossbarShape>& shapes,
                                std::int64_t xbs_per_tile, bool tile_shared) {
  return allocate_tiles({ResidentModel{"", layers, shapes}}, xbs_per_tile,
                        tile_shared ? SharingScope::kCrossModel
                                    : SharingScope::kNone);
}

}  // namespace autohet::mapping
