// Ablation: inter-tile interconnect traffic and energy across crossbar
// configurations (extension beyond the paper's core energy model — the
// bus the Global Controller drives in §3.1, quantified).
#include "bench_common.hpp"
#include "mapping/plan.hpp"
#include "reram/noc.hpp"

using namespace autohet;

int main() {
  bench::print_header(
      "Ablation — interconnect (NoC) traffic and energy (VGG16)");
  const auto net = nn::vgg16();
  const auto layers = net.mappable_layers();

  report::Table table({"Config", "Tiles", "Total bytes/inf", "Mean hops",
                       "NoC energy (nJ)", "vs core energy %"});
  const auto add_row = [&](const std::string& name,
                           const std::vector<mapping::CrossbarShape>& shapes,
                           bool shared) {
    const auto p = plan::compile_plan(net.name, layers, shapes,
                                      bench::paper_accel(shared));
    const auto core = plan::evaluate_plan(p);
    const auto placement =
        reram::place_tiles(p.allocation.tiles, reram::ChipSpec{});
    const auto noc = reram::evaluate_noc(layers, p.allocation, placement);
    table.add_row(
        {name, std::to_string(core.occupied_tiles),
         std::to_string(noc.total_bytes),
         report::format_fixed(noc.mean_hops, 2),
         report::format_fixed(noc.total_energy_nj, 1),
         report::format_fixed(
             100.0 * noc.total_energy_nj / core.energy.total_nj(), 2)});
  };

  for (const auto& shape : mapping::square_candidates()) {
    add_row(shape.name(),
            std::vector<mapping::CrossbarShape>(layers.size(), shape),
            false);
  }
  // The paper's hybrid candidates, all-largest, with tile sharing.
  add_row("576x512+shared",
          std::vector<mapping::CrossbarShape>(layers.size(), {576, 512}),
          true);
  table.print(std::cout);
  std::cout << "\nShape: sprawling small-crossbar configurations pay more "
               "hops; interconnect energy stays a small additive share of "
               "the ADC-dominated core energy.\n";
  return 0;
}
