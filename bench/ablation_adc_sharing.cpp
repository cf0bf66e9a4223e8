// Ablation: ADC column sharing (MNSIM's mux knob). One ADC per bitline —
// the paper's Fig. 5 accounting — maximizes parallelism but dominates area;
// sharing an ADC across N bitlines divides the ADC area by N while
// serializing conversions, stretching latency. Dynamic energy is unchanged
// (every used bitline still converts once per cycle).
#include "bench_common.hpp"
#include "mapping/plan.hpp"

using namespace autohet;

int main() {
  bench::print_header("Ablation — ADC column sharing (VGG16, 512x512)");
  const auto net = nn::vgg16();
  const auto layers = net.mappable_layers();
  const std::vector<mapping::CrossbarShape> shapes(layers.size(), {512, 512});

  report::Table table({"Bitlines/ADC", "Area (um^2)", "ADC area share %",
                       "Latency (ns)", "Energy (nJ)"});
  for (int share : {1, 2, 4, 8, 16}) {
    auto config = bench::paper_accel();
    config.device.adc_share = share;
    const auto r = plan::evaluate_plan(
        plan::compile_plan(net.name, layers, shapes, config));
    table.add_row({std::to_string(share),
                   report::format_sci(r.area.total_um2(), 3),
                   report::format_fixed(
                       100.0 * r.area.adc_um2 / r.area.total_um2(), 1),
                   report::format_sci(r.latency_ns, 3),
                   report::format_sci(r.energy.total_nj(), 3)});
  }
  table.print(std::cout);
  std::cout << "\nShape: area falls steeply until the ADC stops dominating, "
               "latency grows linearly in the sharing factor, energy is "
               "invariant — the classic ISAAC/MNSIM area-latency trade.\n";
  return 0;
}
