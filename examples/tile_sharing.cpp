// Tile-shared crossbar allocation (paper §3.4, Algorithm 1), demonstrated on
// the Fig. 8 scenario and on the full VGG16 mapping.
#include <iostream>

#include "mapping/tile_allocator.hpp"
#include "nn/model_zoo.hpp"
#include "report/table.hpp"

using namespace autohet;

namespace {

void run_fig8_scenario() {
  std::cout << "Fig. 8 scenario: three small layers on 32x32 crossbars, "
               "4-crossbar tiles\n";
  // Layers sized so they need 2, 1 and 1 logical crossbars respectively,
  // exactly the L1-L3 of the paper's Fig. 8.
  const std::vector<nn::LayerSpec> layers = {
      nn::make_conv(6, 20, 3, 1, 1, 8, 8),  // 2 row blocks x 1 col block
      nn::make_conv(3, 20, 3, 1, 1, 8, 8),  // 1 crossbar
      nn::make_conv(2, 16, 3, 1, 1, 8, 8),  // 1 crossbar
  };
  const std::vector<mapping::CrossbarShape> shapes(3, {32, 32});
  for (bool shared : {false, true}) {
    const auto result = mapping::allocate_tiles(layers, shapes, 4, shared);
    std::cout << (shared ? "  with tile sharing:    " : "  without sharing:     ")
              << result.occupied_tiles() << " tiles, "
              << result.empty_crossbars() << " empty crossbars, "
              << report::format_fixed(result.system_utilization() * 100.0, 1)
              << "% system utilization\n";
    if (shared && !result.remap.empty()) {
      for (const auto& [receiver, drained] : result.remap) {
        std::cout << "    tile " << receiver << " received layers from tiles:";
        for (auto id : drained) std::cout << ' ' << id;
        std::cout << '\n';
      }
    }
  }
}

void run_vgg16_sweep() {
  std::cout << "\nVGG16 on 64x64 crossbars, sweeping crossbars per tile "
               "(Fig. 4 setting):\n";
  const auto layers = nn::vgg16().mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(layers.size(), {64, 64});
  report::Table table({"XBs/tile", "Tiles (tile-based)", "Tiles (shared)",
                       "Empty XB % (tile-based)", "Empty XB % (shared)"});
  for (std::int64_t xbs : {4, 8, 16, 32}) {
    const auto base = mapping::allocate_tiles(layers, shapes, xbs, false);
    const auto shared = mapping::allocate_tiles(layers, shapes, xbs, true);
    const auto empty_pct = [](const mapping::AllocationResult& r) {
      return report::format_fixed(
          100.0 * static_cast<double>(r.empty_crossbars()) /
              static_cast<double>(r.total_logical_crossbars()),
          1);
    };
    table.add_row({std::to_string(xbs), std::to_string(base.occupied_tiles()),
                   std::to_string(shared.occupied_tiles()), empty_pct(base),
                   empty_pct(shared)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  run_fig8_scenario();
  run_vgg16_sweep();
  return 0;
}
