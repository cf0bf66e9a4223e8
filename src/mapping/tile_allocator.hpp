// Tile-level crossbar allocation: the conventional tile-based scheme and the
// paper's tile-shared scheme (§3.4, Algorithm 1), for one network or for
// several networks resident on one accelerator.
//
// Terminology: a *logical crossbar* is one PE's worth of storage — a group
// of eight 1-bit physical crossbars holding the eight bit planes of an 8-bit
// weight (paper §4.1). A tile integrates `xbs_per_tile` logical crossbars
// (the paper's default is 4 PEs/tile) and is the minimum allocation unit.
//
// Tile-based: each layer receives ceil(needed / xbs_per_tile) exclusive
// tiles; surplus crossbars in the last tile are wasted.
//
// Tile-shared: after tile-based allocation, tiles are grouped by crossbar
// shape (layers sharing a tile must use the same crossbar size) and
// Algorithm 1's two-pointer pass drains nearly-empty tiles into the empty
// slots of nearly-full ones, releasing the drained tiles. §3.4 notes the
// released tiles "become available for other layers in the DNN model or
// other models": with several resident models the pass runs per model or
// across the union of their tiles (`SharingScope`).
//
// `allocate_tiles` is the one materializing allocator; a single network is
// the one-model case. `drain_tiles` is the one copy of Algorithm 1's sort and
// drain, shared by `tile_shared_remap` (full `Tile`s) and
// `drain_partial_tiles`, the compact count over each layer's partly filled
// last tile that the evaluation engine (reram/eval_engine.cpp) and the
// serving fabric's footprints (serve/fabric.cpp) use.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mapping/layer_mapping.hpp"
#include "nn/layer.hpp"

namespace autohet::mapping {

struct Tile {
  std::int64_t id = 0;
  CrossbarShape shape;
  std::int64_t empty_xbs = 0;           ///< free logical crossbars
  std::vector<std::int64_t> layer_ids;  ///< layers with data in this tile
  /// Logical crossbars each occupant layer holds in this tile; parallel to
  /// layer_ids when populated by the allocator (Algorithm 1 merges both).
  std::vector<std::int64_t> layer_xbs;
  bool released = false;                ///< drained by tile sharing

  bool operator==(const Tile&) const = default;
};

struct LayerAllocation {
  /// model_index * kModelStride + index among the model's mappable layers
  std::int64_t layer_id = 0;
  LayerMapping mapping;
  std::int64_t tiles_allocated = 0;  ///< exclusive tiles before sharing

  bool operator==(const LayerAllocation&) const = default;
};

/// combMap from Algorithm 1: receiving tile id -> drained tile ids.
using CombMap = std::map<std::int64_t, std::vector<std::int64_t>>;

struct AllocationResult {
  std::vector<LayerAllocation> layers;
  std::vector<Tile> tiles;
  CombMap remap;  ///< empty when tile sharing is disabled
  std::int64_t xbs_per_tile = 0;

  /// Tiles still holding data after (optional) sharing.
  std::int64_t occupied_tiles() const;
  /// Logical crossbars inside occupied tiles.
  std::int64_t total_logical_crossbars() const;
  /// Free logical crossbars inside occupied tiles.
  std::int64_t empty_crossbars() const;
  /// Sum of Cin·k²·Cout over all layers.
  std::int64_t useful_cells() const;
  /// All cells inside occupied tiles (per bit plane).
  std::int64_t allocated_cells() const;
  /// System-level utilization in [0, 1]: useful cells over cells in occupied
  /// tiles — empty crossbars inside an allocated tile count as waste.
  double system_utilization() const;

  bool operator==(const AllocationResult&) const = default;
};

/// Algorithm 1's core: sorts the tile pointers in [first, last) ascending
/// by (empty crossbars, id), then runs the two-pointer pass (lines 5-16).
/// The condition head.empty + tail.empty >= xb_num is equivalent to "tail's
/// occupied crossbars fit into head's empties", so the tail tile is drained
/// into the head tile, released, and `on_drain(head, tail)` runs. The
/// pointees need only `id`, `empty_xbs` and `released`. Returns the number
/// of released tiles.
template <class It, class OnDrain>
std::int64_t drain_tiles(It first, It last, std::int64_t xb_num,
                         OnDrain on_drain) {
  std::sort(first, last, [](const auto* a, const auto* b) {
    if (a->empty_xbs != b->empty_xbs) return a->empty_xbs < b->empty_xbs;
    return a->id < b->id;  // deterministic tie-break
  });
  if (first == last) return 0;
  std::int64_t released = 0;
  It head = first;
  It tail = last - 1;
  while (head < tail) {
    auto& h = **head;
    auto& t = **tail;
    if (h.empty_xbs + t.empty_xbs >= xb_num) {
      h.empty_xbs = h.empty_xbs + t.empty_xbs - xb_num;
      t.empty_xbs = 0;
      t.released = true;
      on_drain(h, t);
      ++released;
      --tail;
    } else {
      ++head;
    }
  }
  return released;
}

/// Algorithm 1 applied to one same-shape tile group: `drain_tiles` whose
/// drain hook moves the tail's occupant lists into the head. Mutates empty
/// counts / layer lists / released flags of `tiles` and returns the combMap.
/// `xb_num` is the number of logical crossbars per tile.
CombMap tile_shared_remap(std::vector<Tile*>& tiles, std::int64_t xb_num);

/// A layer's partly filled last tile, the only tile of the layer Algorithm 1
/// can touch: its two-pointer condition head.empty + tail.empty >= xb_num
/// never holds when either side is full, so full tiles neither drain nor
/// receive.
struct PartialTile {
  std::int64_t id = 0;  ///< the id allocate_tiles gives the tile
  std::int64_t empty_xbs = 0;
  CrossbarShape shape;
  std::int64_t model = 0;  ///< sharing group within a shape (0 = one group)
  bool released = false;
};

/// Algorithm 1 on partial tiles alone: groups `partials` by (crossbar rows,
/// cols, model) and runs `drain_tiles` per group, updating their empty
/// counts and released flags. Returns the number of released tiles, which
/// equals allocate_tiles' for the same layers when the ids, empties and
/// groups match its tiles.
std::int64_t drain_partial_tiles(std::vector<PartialTile>& partials,
                                 std::int64_t xb_num);

struct ResidentModel {
  std::string name;
  std::vector<nn::LayerSpec> layers;  ///< mappable layers only
  std::vector<CrossbarShape> shapes;  ///< one per layer
};

enum class SharingScope {
  kNone,       ///< plain tile-based allocation
  kPerModel,   ///< Algorithm 1 within each model separately
  kCrossModel  ///< Algorithm 1 across all resident models
};

/// Layer ids in an allocation encode model_index * kModelStride +
/// layer_index, so a single network's ids are its layer indices.
inline constexpr std::int64_t kModelStride = 1'000'000;

/// Allocates tiles for every model's `layers[i]` mapped with `shapes[i]`
/// into one tile list (ids consecutive in model, then layer order), then
/// runs Algorithm 1 per crossbar-shape group under `scope`. `xbs_per_tile`
/// is the logical crossbars (PEs) per tile.
AllocationResult allocate_tiles(const std::vector<ResidentModel>& models,
                                std::int64_t xbs_per_tile, SharingScope scope);

/// One network: the one-model case, with `tile_shared` selecting
/// kCrossModel and its absence kNone.
AllocationResult allocate_tiles(const std::vector<nn::LayerSpec>& layers,
                                const std::vector<CrossbarShape>& shapes,
                                std::int64_t xbs_per_tile, bool tile_shared);

}  // namespace autohet::mapping
