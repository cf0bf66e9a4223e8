// Ablation: ADC resolution. The paper fixes 10-bit ADCs "to support
// crossbars of all heterogeneous sizes" (§4.1); this sweep quantifies what
// that choice costs. Conversion energy/area come from the SAR component
// model (reram/components.hpp), so energy halves per bit removed — the
// lever behind ADC-sharing literature.
#include "bench_common.hpp"
#include "mapping/plan.hpp"
#include "reram/components.hpp"

using namespace autohet;

int main() {
  bench::print_header("Ablation — ADC resolution (VGG16, 576x512 crossbars)");
  const auto net = nn::vgg16();
  const auto layers = net.mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(layers.size(), {576, 512});

  report::Table table({"ADC bits", "ADC energy (pJ/conv)", "Energy (nJ)",
                       "Area (um^2)", "RUE"});
  for (int bits : {6, 8, 10, 12}) {
    reram::ComponentConfig cfg;
    cfg.adc_resolution_bits = bits;
    auto accel = bench::paper_accel(/*tile_shared=*/true);
    accel.device = reram::derive_device_params(cfg);
    const auto r = plan::evaluate_plan(
        plan::compile_plan(net.name, layers, shapes, accel));
    table.add_row({std::to_string(bits),
                   report::format_fixed(accel.device.adc_energy_pj, 3),
                   report::format_sci(r.energy.total_nj(), 3),
                   report::format_sci(r.area.total_um2(), 3),
                   report::format_sci(r.rue(), 3)});
  }
  table.print(std::cout);
  std::cout << "\nShape: each ADC bit doubles conversion energy; a 10-bit "
               "ADC (the paper's choice, needed to resolve 576-row bitline "
               "sums) costs ~16x the energy of a 6-bit one.\n";
  return 0;
}
