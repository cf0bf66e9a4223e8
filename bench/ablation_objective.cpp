// Extension: search-objective ablation. The paper optimizes RUE = u/e
// (Eq. 2); area- and latency-aware variants fold the remaining hardware
// costs into the reward. This bench runs the same search under each
// objective and shows how the resulting configurations trade the four
// metrics — demonstrating that the framework generalizes beyond the paper's
// single objective (§4.5 "applicability").
//
// Usage: ablation_objective [episodes]   (default 120 per search)
#include "bench_common.hpp"

using namespace autohet;

int main(int argc, char** argv) {
  common::ArgParser args = bench::make_args(
      "ablation_objective", "Ablation: search objective (VGG16)");
  args.add_optional_positional("episodes", "120",
                               "RL search episodes per objective");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv, {{"episodes", 1}}, &session)) {
    return 2;
  }
  const int episodes = args.count("episodes");
  bench::print_header("Ablation — search objective (VGG16, " +
                      std::to_string(episodes) + " episodes each)");
  const auto net = nn::vgg16();

  report::Table table({"Objective", "Utilization %", "Energy (nJ)",
                       "Area (um^2)", "Latency (ns)", "RUE"});
  for (const auto& [objective, name] :
       {std::pair{core::RewardObjective::kUtilizationPerEnergy,
                  "u/e (paper Eq. 2)"},
        std::pair{core::RewardObjective::kAreaAware, "u/(e*area)"},
        std::pair{core::RewardObjective::kLatencyAware, "u/(e*latency)"}}) {
    core::EnvConfig cfg;
    cfg.candidates = mapping::hybrid_candidates();
    cfg.accel.tile_shared = true;
    cfg.objective = objective;
    const core::CrossbarEnv env(net.mappable_layers(), cfg);
    const auto result = bench::run_search(env, episodes, /*seed=*/9);
    const auto& r = result.best_report;
    table.add_row({name, report::format_fixed(r.utilization * 100.0, 1),
                   report::format_sci(r.energy.total_nj(), 3),
                   report::format_sci(r.area.total_um2(), 3),
                   report::format_sci(r.latency_ns, 3),
                   report::format_sci(r.rue(), 3)});
  }
  table.print(std::cout);
  std::cout << "\nShape: the area-aware objective trims chip area at a small "
               "RUE cost, the latency-aware one steers toward faster "
               "crossbar picks — the reward is the steering wheel.\n";
  return 0;
}
