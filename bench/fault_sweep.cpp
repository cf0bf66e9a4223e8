// Robustness sweep: accuracy under ReRAM non-idealities as a function of
// stuck-at fault rate and bits-per-cell, for the AutoHet-searched
// heterogeneous configuration vs homogeneous baselines.
//
// The paper evaluates an ideal device; this bench quantifies how each
// configuration's accuracy (argmax agreement with the ideal fabric, LeNet-5
// on synthetic inputs) degrades as the fabric becomes faulty. Every point
// is a seeded Monte-Carlo run (reram/faults.hpp) — same binary, same
// output, every time. Multi-bit cells pack more levels into the same
// conductance window, so the same physical defect rate costs more accuracy
// at 4 bits/cell than at 1 bit/cell (the A(b) amplification; DESIGN.md §6).
//
// Emits BENCH_fault_sweep.json: one series per configuration with its
// chosen per-layer tile shapes (identical series are explainable from the
// JSON alone), one point per (stuck-at rate, cell_bits) with accuracy
// mean/stddev/min and its 95% Wilson CI, the analytic vulnerability (the
// search-reward proxy), the burned-in fault counts, and the Monte-Carlo
// trials run/saved under the active budget.
//
// Usage: fault_sweep [episodes] [mc_threads] [budget]
//   episodes   — search budget (default 60)
//   mc_threads — Monte-Carlo trial parallelism: 1 = serial, 0 = one per
//                hardware thread (default). The emitted JSON is
//                byte-identical at every thread count (CI diffs it).
//   budget     — "fixed" (default: every point runs kTrials trials; the
//                historical byte-identical output) or "adaptive"
//                (sequential early stopping per DESIGN.md §10; decisive
//                points stop at the min-trial clamp, uncertain points run
//                up to the cap; writes BENCH_fault_sweep_adaptive.json).
#include <fstream>

#include "bench_common.hpp"
#include "reram/eval_engine.hpp"

using namespace autohet;

namespace {

constexpr double kStuckRates[] = {0.0, 1e-4, 1e-3, 5e-3, 1e-2};
constexpr int kCellBits[] = {1, 2, 4};
/// Programming variation present at every point (including rate 0) so the
/// bits-per-cell axis is visible independently of the stuck-at axis.
constexpr double kProgramSigma = 0.01;
constexpr int kTrials = 5;
constexpr int kSamples = 12;
/// Adaptive budget: a larger requested cap than the fixed product, paid
/// only where the accuracy CI stays wide — the grid's decisive points
/// (rate 0, low rates) stop at the min-trial clamp.
constexpr int kAdaptiveMaxTrials = 15;
constexpr int kAdaptiveMinTrials = 2;
constexpr double kAdaptiveCi = 0.1;

reram::FaultConfig point_config(double stuck_rate, int cell_bits) {
  reram::FaultConfig faults;
  faults.stuck_at_zero_rate = stuck_rate / 2.0;
  faults.stuck_at_one_rate = stuck_rate / 2.0;
  faults.program_sigma = kProgramSigma;
  faults.cell_bits = cell_bits;
  return faults;
}

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser args = bench::make_args(
      "fault_sweep", "Accuracy vs stuck-at rate x cell bits (LeNet-5)");
  args.add_optional_positional("episodes", "60", "search budget");
  args.add_optional_positional(
      "mc_threads", "0",
      "Monte-Carlo trial parallelism (1 = serial, 0 = one per hardware "
      "thread)");
  args.add_optional_positional("budget", "fixed", "fixed | adaptive");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv,
                         {{"episodes", 1}, {"mc_threads", 0}}, &session,
                         {{"budget", {"fixed", "adaptive"}}})) {
    return 2;
  }
  const int episodes = args.count("episodes");
  const int mc_threads = args.count("mc_threads");
  const bool adaptive = args.positional("budget") == "adaptive";
  bench::print_header("Fault sweep — accuracy vs stuck-at rate × cell bits "
                      "(LeNet-5, " + std::to_string(episodes) +
                      " search rounds, " +
                      (adaptive ? "adaptive" : "fixed") + " MC budget)");

  const nn::NetworkSpec net = nn::lenet5();
  common::Rng weight_rng(21);
  const nn::Model model(net, weight_rng);
  const auto env = bench::make_env(net, mapping::hybrid_candidates(),
                                   /*tile_shared=*/true);

  struct Config {
    std::string name;
    std::vector<std::size_t> actions;
  };
  std::vector<Config> configs;
  const auto autohet_result = bench::run_search(env, episodes, /*seed=*/1);
  configs.push_back({"AutoHet (RL)", autohet_result.best_actions});
  const auto homo = core::best_homogeneous(env);
  configs.push_back({homo.name, homo.actions});
  // Largest candidate homogeneously: the conservative "big crossbars"
  // deployment (fewest row blocks → analytically the most robust).
  const auto& candidates = env.candidates();
  std::size_t largest = 0;
  for (std::size_t c = 1; c < candidates.size(); ++c) {
    if (candidates[c].cells() > candidates[largest].cells()) largest = c;
  }
  configs.push_back(
      {"Homo(" + candidates[largest].name() + ")",
       std::vector<std::size_t>(env.num_layers(), largest)});

  reram::RobustnessOptions mc;
  mc.trials = kTrials;
  mc.samples = kSamples;
  mc.threads = mc_threads;
  if (adaptive) {
    mc.budget.mode = reram::RobustnessBudget::Mode::kAdaptive;
    mc.budget.ci_halfwidth = kAdaptiveCi;
    mc.budget.min_trials = kAdaptiveMinTrials;
    mc.budget.max_trials = kAdaptiveMaxTrials;
    mc.budget.chunk_trials = 1;
  }

  std::int64_t trials_requested_total = 0;
  std::int64_t trials_run_total = 0;

  report::Table table({"Configuration", "Stuck rate", "Cell bits",
                       "Accuracy mean±σ", "Min", "Trials", "Analytic vuln"});
  const std::string out_name = adaptive ? "BENCH_fault_sweep_adaptive.json"
                                        : "BENCH_fault_sweep.json";
  std::ofstream json(out_name);
  json << "{\n  \"benchmark\": \"fault_sweep\",\n  \"model\": \"lenet5\",\n"
       << "  \"episodes\": " << episodes << ",\n"
       << "  \"trials\": " << kTrials << ",\n"
       << "  \"samples\": " << kSamples << ",\n"
       << "  \"program_sigma\": " << kProgramSigma << ",\n"
       << "  \"budget\": {\"mode\": \""
       << (adaptive ? "adaptive" : "fixed") << "\"";
  if (adaptive) {
    json << ", \"ci_halfwidth\": " << kAdaptiveCi
         << ", \"min_trials\": " << kAdaptiveMinTrials
         << ", \"max_trials\": " << kAdaptiveMaxTrials;
  }
  json << "},\n  \"series\": [";
  bool first_series = true;
  for (const auto& config : configs) {
    std::vector<mapping::CrossbarShape> shapes;
    for (std::size_t a : config.actions) shapes.push_back(candidates[a]);
    json << (first_series ? "\n" : ",\n")
         << "    {\"name\": \"" << config.name << "\", \"tile_shapes\": [";
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      json << (i == 0 ? "" : ", ") << '"' << shapes[i].name() << '"';
    }
    json << "], \"points\": [";
    first_series = false;
    bool first_point = true;
    for (const int cell_bits : kCellBits) {
      for (const double rate : kStuckRates) {
        const reram::FaultConfig faults = point_config(rate, cell_bits);
        const auto report = env.engine().evaluate_robustness(
            model, config.actions, faults, mc);
        trials_requested_total += report.trials_requested;
        trials_run_total += report.trials;
        const double vuln = reram::analytic_network_vulnerability(
            env.layers(), shapes, faults);
        table.add_row(
            {config.name, report::format_sci(rate, 1),
             std::to_string(cell_bits),
             report::format_fixed(report.mean_accuracy, 3) + " ± " +
                 report::format_fixed(report.stddev_accuracy, 3),
             report::format_fixed(report.min_accuracy, 3),
             std::to_string(report.trials) + "/" +
                 std::to_string(report.trials_requested),
             report::format_fixed(vuln, 4)});
        json << (first_point ? "\n" : ",\n")
             << "      {\"stuck_rate\": " << rate
             << ", \"cell_bits\": " << cell_bits
             << ", \"accuracy_mean\": " << report.mean_accuracy
             << ", \"accuracy_stddev\": " << report.stddev_accuracy
             << ", \"accuracy_min\": " << report.min_accuracy
             << ", \"accuracy_ci_lower\": " << report.accuracy_ci_lower
             << ", \"accuracy_ci_upper\": " << report.accuracy_ci_upper
             << ", \"mean_logit_error\": " << report.mean_logit_error
             << ", \"analytic_vulnerability\": " << vuln
             << ", \"stuck_cells\": "
             << report.fault_stats.stuck_at_zero +
                    report.fault_stats.stuck_at_one
             << ", \"weights_changed\": "
             << report.fault_stats.weights_changed
             << ", \"mc_trials_run\": " << report.trials
             << ", \"mc_trials_saved\": "
             << report.trials_requested - report.trials << "}";
        first_point = false;
      }
    }
    json << "\n    ]}";
  }
  const double savings_ratio =
      trials_run_total > 0
          ? static_cast<double>(trials_requested_total) /
                static_cast<double>(trials_run_total)
          : 1.0;
  json << "\n  ],\n"
       << "  \"mc_trials_requested_total\": " << trials_requested_total
       << ",\n  \"mc_trials_run_total\": " << trials_run_total
       << ",\n  \"mc_savings_ratio\": " << savings_ratio << "\n}\n";
  table.print(std::cout);
  std::cout << "\nMC trials: " << trials_run_total << " run / "
            << trials_requested_total << " requested (savings "
            << report::format_fixed(savings_ratio, 2) << "x)\n"
            << "Wrote " << out_name << "\n";
  return 0;
}
