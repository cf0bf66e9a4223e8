// Reproduces Fig. 10: the impact of each AutoHet technique, enabled one by
// one, on RUE / utilization / energy for the three models:
//   Base  = best homogeneous square accelerator,
//   +He   = RL search over heterogeneous square crossbars (SXBs),
//   +Hy   = RL search over hybrid squares + rectangles (the paper's five),
//   All   = +Hy plus the tile-shared allocation scheme.
//
// Usage: fig10_ablation [episodes]   (default 120 per search)
#include "bench_common.hpp"

using namespace autohet;

int main(int argc, char** argv) {
  common::ArgParser args = bench::make_args(
      "fig10_ablation", "Fig. 10: impact of the individual techniques");
  args.add_optional_positional("episodes", "120",
                               "RL search episodes per configuration");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv, {{"episodes", 1}}, &session)) {
    return 2;
  }
  const int episodes = args.count("episodes");
  bench::print_header("Fig. 10 — impact of individual techniques");

  for (const auto& net : nn::paper_workloads()) {
    const int eps = net.name == "ResNet152" ? std::max(20, episodes / 2)
                                            : episodes;
    std::cout << "\n-- " << net.name << " (" << eps
              << " episodes per search) --\n";

    const auto square_env = bench::make_env(net, mapping::square_candidates(),
                                            /*tile_shared=*/false);
    const auto base = core::best_homogeneous(square_env);
    const auto he = bench::run_search(square_env, eps);
    const auto hy_env = bench::make_env(net, mapping::hybrid_candidates(),
                                        /*tile_shared=*/false);
    const auto hy = bench::run_search(hy_env, eps);
    const auto all_env = bench::make_env(net, mapping::hybrid_candidates(),
                                         /*tile_shared=*/true);
    const auto all = bench::run_search(all_env, eps);

    report::Table table({"Variant", "Utilization %", "Energy (nJ)", "RUE"});
    table.add_row(bench::metric_row("Base (" + base.name + ")", base.report));
    table.add_row(bench::metric_row("+He  (hetero SXB)", he.best_report));
    table.add_row(bench::metric_row("+Hy  (hybrid SXB+RXB)", hy.best_report));
    table.add_row(bench::metric_row("All  (+tile-shared)", all.best_report));
    table.print(std::cout);
    std::cout << "RUE steps: +He/Base="
              << report::format_fixed(he.best_report.rue() / base.report.rue(),
                                      2)
              << "x, +Hy/+He="
              << report::format_fixed(
                     hy.best_report.rue() / he.best_report.rue(), 2)
              << "x, All/+Hy="
              << report::format_fixed(
                     all.best_report.rue() / hy.best_report.rue(), 2)
              << "x\n";
  }
  std::cout << "\nPaper shape: each technique improves or maintains RUE; "
               "+Hy contributes most to energy, All to utilization.\n";
  return 0;
}
