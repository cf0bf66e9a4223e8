// Reproduces Table 4: the number of occupied tiles under +Hy (hybrid
// candidates, exclusive tiles) and All (+ tile-shared allocation) for the
// three models. The same learned configuration is evaluated under both
// allocators so the delta isolates the tile-shared scheme.
//
// Usage: table4_tiles [episodes]   (default 120 per search)
#include "bench_common.hpp"
#include "mapping/plan.hpp"

using namespace autohet;

int main(int argc, char** argv) {
  common::ArgParser args = bench::make_args(
      "table4_tiles", "Table 4: occupied tiles, +Hy vs All");
  args.add_optional_positional("episodes", "120",
                               "RL search episodes per configuration");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv, {{"episodes", 1}}, &session)) {
    return 2;
  }
  const int episodes = args.count("episodes");
  bench::print_header("Table 4 — occupied tiles: +Hy vs All (tile-shared)");

  report::Table table({"Model", "+Hy tiles", "All tiles", "Reduction %"});
  for (const auto& net : nn::paper_workloads()) {
    const int eps = net.name == "ResNet152" ? std::max(20, episodes / 2)
                                            : episodes;
    const auto hy_env = bench::make_env(net, mapping::hybrid_candidates(),
                                        /*tile_shared=*/false);
    const auto hy = bench::run_search(hy_env, eps);

    // Same per-layer shapes, re-evaluated with the tile-shared allocator.
    std::vector<mapping::CrossbarShape> shapes;
    for (auto a : hy.best_actions) shapes.push_back(hy_env.candidates()[a]);
    const auto shared_cfg = bench::paper_accel(/*tile_shared=*/true);
    const auto all = plan::evaluate_plan(plan::compile_plan(
        net.name, net.mappable_layers(), shapes, shared_cfg));

    const auto hy_tiles = hy.best_report.occupied_tiles;
    const auto all_tiles = all.occupied_tiles;
    table.add_row({net.name, std::to_string(hy_tiles),
                   std::to_string(all_tiles),
                   report::format_fixed(
                       100.0 * static_cast<double>(hy_tiles - all_tiles) /
                           static_cast<double>(hy_tiles),
                       1)});
  }
  table.print(std::cout);
  std::cout << "\nPaper: 33->31 (AlexNet), 30->27 (VGG16), 246->232 "
               "(ResNet152); reductions of 6.1% / 10% / 5.7%.\n";
  return 0;
}
