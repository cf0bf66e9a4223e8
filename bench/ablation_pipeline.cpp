// Ablation: layer-pipelined inference throughput and the replication
// (weight-duplication) throughput/area trade — the PipeLayer/ISAAC-style
// balancing the paper's accelerators inherit.
#include "bench_common.hpp"
#include "reram/pipeline.hpp"

using namespace autohet;

int main() {
  bench::print_header("Ablation — pipelined throughput vs replication budget "
                      "(VGG16)");
  const auto net = nn::vgg16();
  const auto layers = net.mappable_layers();
  const auto config = bench::paper_accel();

  report::Table table({"Crossbar", "Extra-tile budget",
                       "Bottleneck interval (ns)", "Throughput (inf/s)",
                       "Fill latency (ns)", "Extra tiles used"});
  for (const auto& shape :
       {mapping::CrossbarShape{128, 128}, mapping::CrossbarShape{576, 512}}) {
    const auto p = plan::compile_plan(
        net.name, layers,
        std::vector<mapping::CrossbarShape>(layers.size(), shape), config);
    for (std::int64_t budget : {0, 16, 64, 256}) {
      const auto rep = reram::balance_replication(p, budget);
      const auto report = reram::evaluate_pipeline(p, rep);
      table.add_row({shape.name(), std::to_string(budget),
                     report::format_sci(report.bottleneck_interval_ns, 3),
                     report::format_fixed(
                         report.throughput_inferences_per_s, 1),
                     report::format_sci(report.fill_latency_ns, 3),
                     std::to_string(report.total_extra_tiles)});
    }
  }
  table.print(std::cout);

  // Where the replication goes: show the balanced factors for one case.
  const auto large = plan::compile_plan(
      net.name, layers,
      std::vector<mapping::CrossbarShape>(layers.size(), {576, 512}), config);
  const auto rep = reram::balance_replication(large, 64);
  std::cout << "\nReplication factors at budget 64 on 576x512 (layer: copies):"
            << "\n  ";
  for (std::size_t k = 0; k < rep.size(); ++k) {
    if (rep[k] > 1) std::cout << "L" << k + 1 << ":" << rep[k] << "  ";
  }
  std::cout << "\nShape: the budget flows to the large-feature-map early "
               "layers; throughput rises until they are balanced.\n";
  return 0;
}
