// Reproduces Fig. 9(a-c): overall RUE, crossbar utilization and normalized
// energy of the five homogeneous accelerators and AutoHet, for AlexNet,
// VGG16 and ResNet152.
//
// Usage: fig09_overall [episodes]   (default 200; ResNet152 uses half)
#include "bench_common.hpp"

using namespace autohet;

int main(int argc, char** argv) {
  common::ArgParser args = bench::make_args(
      "fig09_overall", "Fig. 9: AutoHet vs the homogeneous baselines");
  args.add_optional_positional("episodes", "200",
                               "RL search episodes per network");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv, {{"episodes", 1}}, &session)) {
    return 2;
  }
  const int episodes = args.count("episodes");
  bench::print_header("Fig. 9 — overall performance (5 homogeneous + AutoHet)");

  for (const auto& net : nn::paper_workloads()) {
    // ResNet152 episodes are heavier (156 layers); trim to keep the harness
    // runtime reasonable — convergence is driven by per-layer transitions,
    // of which ResNet episodes generate 10x more.
    const int eps = net.name == "ResNet152" ? std::max(20, episodes / 2)
                                            : episodes;
    const auto homo_env = bench::make_env(net, mapping::square_candidates(),
                                          /*tile_shared=*/false);
    const auto auto_env = bench::make_env(net, mapping::hybrid_candidates(),
                                          /*tile_shared=*/true);
    const auto sweep = core::homogeneous_sweep(homo_env);
    const auto result = bench::run_search(auto_env, eps);

    // Fig. 9(c) normalizes the lowest homogeneous energy to one.
    double min_energy = result.best_report.energy.total_nj();
    for (const auto& s : sweep) {
      min_energy = std::min(min_energy, s.report.energy.total_nj());
    }

    std::cout << "\n-- " << net.name << " (" << net.mappable_layers().size()
              << " layers, " << eps << " search episodes) --\n";
    report::Table table(
        {"Config", "RUE", "Utilization %", "Normalized energy"});
    double best_homo_rue = 0.0;
    for (const auto& s : sweep) {
      best_homo_rue = std::max(best_homo_rue, s.report.rue());
      table.add_row({s.name, report::format_sci(s.report.rue(), 3),
                     report::format_fixed(s.report.utilization * 100.0, 1),
                     report::format_fixed(
                         s.report.energy.total_nj() / min_energy, 2)});
    }
    const auto& best = result.best_report;
    table.add_row({"AUTOHET", report::format_sci(best.rue(), 3),
                   report::format_fixed(best.utilization * 100.0, 1),
                   report::format_fixed(best.energy.total_nj() / min_energy,
                                        2)});
    table.print(std::cout);
    std::cout << "AutoHet RUE vs best homogeneous: "
              << report::format_fixed(best.rue() / best_homo_rue, 2)
              << "x (paper: 1.3x AlexNet / 2.2x VGG16 / 1.4x ResNet152)\n";
    const auto cache = auto_env.engine().cache_stats();
    std::cout << "Eval-engine cache: "
              << report::format_fixed(100.0 * cache.hit_rate(), 1) << "% hits ("
              << cache.hits << "/" << cache.hits + cache.misses
              << " evaluations)\n";
  }
  return 0;
}
