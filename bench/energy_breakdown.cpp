// Component-wise energy breakdown across crossbar sizes — the evidence for
// the modeling premise the whole paper rests on (§2.2.3: ADCs dominate,
// so fewer activated ADCs means less energy). Also emits the per-layer CSV
// (report/serialize) for one configuration.
#include <sstream>

#include "bench_common.hpp"
#include "mapping/plan.hpp"
#include "report/serialize.hpp"

using namespace autohet;

int main() {
  bench::print_header("Energy breakdown by component (VGG16)");
  const auto net = nn::vgg16();
  const auto layers = net.mappable_layers();
  const auto config = bench::paper_accel();
  const auto homogeneous = [&](const mapping::CrossbarShape& shape,
                               const reram::AcceleratorConfig& accel) {
    return plan::evaluate_plan(plan::compile_plan(
        net.name, layers,
        std::vector<mapping::CrossbarShape>(layers.size(), shape), accel));
  };

  report::Table table({"Crossbar", "ADC %", "DAC %", "Cell %", "Shift-add %",
                       "Buffer %", "Total (nJ)"});
  for (const auto& shape : mapping::square_candidates()) {
    const auto r = homogeneous(shape, config);
    const double total = r.energy.total_nj();
    const auto pct = [&](double v) {
      return report::format_fixed(100.0 * v / total, 1);
    };
    table.add_row({shape.name(), pct(r.energy.adc_nj), pct(r.energy.dac_nj),
                   pct(r.energy.cell_nj), pct(r.energy.shift_add_nj),
                   pct(r.energy.buffer_nj), report::format_sci(total, 3)});
  }
  table.print(std::cout);

  // Machine-readable per-layer dump for the paper's default heterogeneous
  // pick (576x512 everywhere, tile-shared).
  reram::AcceleratorConfig shared = config;
  shared.tile_shared = true;
  const auto hetero = homogeneous({576, 512}, shared);
  std::cout << "\nPer-layer CSV (576x512, tile-shared):\n";
  report::write_network_report_csv(std::cout, hetero);
  return 0;
}
