// Reproduces Table 5: area occupancy and inference latency of the five
// homogeneous accelerators and AutoHet, for VGG16.
//
// Usage: table5_area_latency [episodes]   (default 200)
#include "bench_common.hpp"

using namespace autohet;

int main(int argc, char** argv) {
  common::ArgParser args = bench::make_args(
      "table5_area_latency", "Table 5: area and inference latency (VGG16)");
  args.add_optional_positional("episodes", "200", "RL search episodes");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv, {{"episodes", 1}}, &session)) {
    return 2;
  }
  const int episodes = args.count("episodes");
  bench::print_header("Table 5 — area and inference latency (VGG16)");
  const auto net = nn::vgg16();

  const auto homo_env = bench::make_env(net, mapping::square_candidates(),
                                        /*tile_shared=*/false);
  const auto auto_env = bench::make_env(net, mapping::hybrid_candidates(),
                                        /*tile_shared=*/true);
  const auto result = bench::run_search(auto_env, episodes);

  report::Table table({"Accelerator", "Area (um^2)", "Latency (ns)",
                       "Area vs SXB512", "Latency vs best"});
  const auto sweep = core::homogeneous_sweep(homo_env);
  const double area512 = sweep.back().report.area.total_um2();
  double best_latency = result.best_report.latency_ns;
  for (const auto& s : sweep) {
    best_latency = std::min(best_latency, s.report.latency_ns);
  }
  for (const auto& s : sweep) {
    table.add_row({"SXB" + std::to_string(s.report.layers[0].shape.rows),
                   report::format_sci(s.report.area.total_um2(), 2),
                   report::format_sci(s.report.latency_ns, 2),
                   report::format_fixed(
                       s.report.area.total_um2() / area512, 2) + "x",
                   report::format_fixed(
                       s.report.latency_ns / best_latency, 2) + "x"});
  }
  const auto& best = result.best_report;
  table.add_row({"AUTOHET", report::format_sci(best.area.total_um2(), 2),
                 report::format_sci(best.latency_ns, 2),
                 report::format_fixed(best.area.total_um2() / area512, 2) +
                     "x",
                 report::format_fixed(best.latency_ns / best_latency, 2) +
                     "x"});
  table.print(std::cout);
  std::cout << "\nPaper shape: area shrinks monotonically with crossbar "
               "size; AutoHet is smallest (paper: -14% vs SXB512, -92% vs "
               "best-RUE homogeneous) with latency within a few percent of "
               "the fastest accelerator.\n";
  return 0;
}
