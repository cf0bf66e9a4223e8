// Ablation: memristor cell precision. The paper fixes 1-bit cells (§4.1);
// multi-level cells pack more weight bits per device, shrinking the number
// of physical bit planes (8 / cell_bits) and with it energy and area. The
// functional datapath stays bit-exact at every precision
// (LogicalCrossbar::mvm_multilevel; verified in tests/test_multilevel.cpp).
#include "bench_common.hpp"
#include "mapping/plan.hpp"

using namespace autohet;

int main() {
  bench::print_header("Ablation — cell precision (VGG16, 576x512 crossbars)");
  const auto net = nn::vgg16();
  const auto layers = net.mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(layers.size(), {576, 512});

  report::Table table({"Cell bits", "Bit planes", "Energy (nJ)",
                       "Area (um^2)", "Energy vs 1-bit", "Area vs 1-bit"});
  double e1 = 0.0, a1 = 0.0;
  for (int cell_bits : {1, 2, 4, 8}) {
    auto config = bench::paper_accel(/*tile_shared=*/true);
    config.device.cell_bits = cell_bits;
    const auto r = plan::evaluate_plan(
        plan::compile_plan(net.name, layers, shapes, config));
    if (cell_bits == 1) {
      e1 = r.energy.total_nj();
      a1 = r.area.total_um2();
    }
    table.add_row({std::to_string(cell_bits),
                   std::to_string(config.device.bit_planes()),
                   report::format_sci(r.energy.total_nj(), 3),
                   report::format_sci(r.area.total_um2(), 3),
                   report::format_fixed(r.energy.total_nj() / e1, 2) + "x",
                   report::format_fixed(r.area.total_um2() / a1, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nShape: energy and crossbar area scale with 8/cell_bits; "
               "real MLC devices trade this against programming precision "
               "and variation sensitivity (see the variation example).\n";
  return 0;
}
