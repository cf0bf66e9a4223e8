// Reproduces Table 3: the crossbar size assigned to each VGG16 layer under
// Base (best homogeneous), +He (RL over squares) and +Hy (RL over hybrid
// squares + rectangles).
//
// Usage: table3_layer_sizes [episodes]   (default 200 per search)
#include "bench_common.hpp"

using namespace autohet;

int main(int argc, char** argv) {
  common::ArgParser args = bench::make_args(
      "table3_layer_sizes", "Table 3: per-layer crossbar sizes (VGG16)");
  args.add_optional_positional("episodes", "200", "RL search episodes");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv, {{"episodes", 1}}, &session)) {
    return 2;
  }
  const int episodes = args.count("episodes");
  bench::print_header("Table 3 — per-layer crossbar sizes for VGG16");
  const auto net = nn::vgg16();

  const auto square_env = bench::make_env(net, mapping::square_candidates(),
                                          /*tile_shared=*/false);
  const auto base = core::best_homogeneous(square_env);
  const auto he = bench::run_search(square_env, episodes);
  const auto hy_env = bench::make_env(net, mapping::hybrid_candidates(),
                                      /*tile_shared=*/false);
  const auto hy = bench::run_search(hy_env, episodes);

  report::Table table({"Layer", "Spec", "Base", "+He", "+Hy"});
  const auto layers = net.mappable_layers();
  for (std::size_t k = 0; k < layers.size(); ++k) {
    // += instead of "L" + to_string(...): GCC 12 -Wrestrict false positive
    // on the inlined temporary-string operator+ chain (PR105329).
    std::string label = "L";
    label += std::to_string(k + 1);
    table.add_row(
        {label, layers[k].to_string(),
         square_env.candidates()[base.actions[k]].name(),
         square_env.candidates()[he.best_actions[k]].name(),
         hy_env.candidates()[hy.best_actions[k]].name()});
  }
  table.print(std::cout);
  std::cout << "\nPaper shape: Base is uniform; +He diversifies a few layers "
               "(256 vs 512); +Hy shifts to rectangle shapes (288x256 / "
               "576x512).\n";
  return 0;
}
