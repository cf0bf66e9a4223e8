// Ablation: tile placement policy. Tile ids are allocated in layer order,
// so the slot-filling curve controls how far consecutive layers' tiles sit
// on the bank grid — and with it the interconnect hop count the NoC model
// charges. Also prints the pipelined-batch timeline head from the event
// scheduler for one configuration.
#include "bench_common.hpp"
#include "reram/noc.hpp"
#include "reram/scheduler.hpp"

using namespace autohet;

int main() {
  bench::print_header("Ablation — placement policy vs interconnect (VGG16)");
  const auto net = nn::vgg16();
  const auto layers = net.mappable_layers();

  report::Table table({"Crossbar", "Policy", "Mean hops", "NoC energy (nJ)"});
  for (const auto& shape :
       {mapping::CrossbarShape{32, 32}, mapping::CrossbarShape{64, 64},
        mapping::CrossbarShape{128, 128}}) {
    const std::vector<mapping::CrossbarShape> shapes(layers.size(), shape);
    const auto allocation =
        mapping::TileAllocator(4, false).allocate(layers, shapes);
    for (const auto& [policy, name] :
         {std::pair{reram::PlacementPolicy::kRowMajor, "row-major"},
          std::pair{reram::PlacementPolicy::kSnake, "snake"},
          std::pair{reram::PlacementPolicy::kHilbert, "hilbert"}}) {
      const auto placement =
          reram::place_tiles(allocation.tiles, reram::ChipSpec{}, policy);
      const auto noc = reram::evaluate_noc(layers, allocation, placement);
      table.add_row({shape.name(), name,
                     report::format_fixed(noc.mean_hops, 2),
                     report::format_fixed(noc.total_energy_nj, 1)});
    }
  }
  table.print(std::cout);

  // Scheduler timeline head for a small pipelined batch.
  std::cout << "\nPipelined batch timeline (VGG16 on 128x128, batch 3, "
               "first 8 tasks):\n";
  const auto p = plan::compile_plan(
      net.name, layers,
      std::vector<mapping::CrossbarShape>(layers.size(), {128, 128}),
      bench::paper_accel());
  const auto schedule = reram::schedule_batch(p, /*batch=*/3);
  report::Table timeline({"Image", "Layer", "Start (ns)", "Finish (ns)"});
  for (std::size_t t = 0; t < 8 && t < schedule.tasks.size(); ++t) {
    const auto& task = schedule.tasks[t];
    timeline.add_row({std::to_string(task.image), std::to_string(task.layer),
                      report::format_sci(task.start_ns, 3),
                      report::format_sci(task.finish_ns, 3)});
  }
  timeline.print(std::cout);
  std::cout << "Makespan: " << report::format_sci(schedule.makespan_ns, 3)
            << " ns; steady throughput "
            << report::format_fixed(
                   schedule.steady_throughput_inferences_per_s, 1)
            << " inf/s\n";
  std::cout << "\nShape: the Hilbert curve cuts mean hops ~3-4x versus "
               "row-major at every size; snake only helps once layers span "
               "few rows (it can even lose on extreme sprawl, where "
               "alternating row directions separates large layer groups).\n";
  return 0;
}
