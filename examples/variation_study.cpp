// Device non-ideality study: how ReRAM programming variation degrades
// inference on the simulated fabric. Motivated by the paper's edge-device
// setting (§2.2 cites variability-aware RRAM controllers); the fault model
// (reram/faults.hpp) burns lognormal conductance variation of magnitude
// FaultConfig::program_sigma into every programmed cell.
//
// For each sigma, a seeded Monte-Carlo run draws several independent
// LeNet-5 fabrics with 2-bit cells and reports the mean argmax agreement
// with the ideal fabric, its 95% confidence interval across trials, and the
// mean logit error over a batch of synthetic samples.
#include <iostream>
#include <string>

#include "common/rng.hpp"
#include "nn/model.hpp"
#include "nn/model_zoo.hpp"
#include "reram/functional.hpp"
#include "report/table.hpp"

using namespace autohet;

int main() {
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng weight_rng(21);
  const nn::Model model(net, weight_rng);
  const std::vector<mapping::CrossbarShape> shapes = {
      {36, 32}, {288, 256}, {576, 512}, {128, 128}, {128, 128}};

  reram::TrialFabricCache cache;  // one ideal reference set for every sigma
  reram::RobustnessOptions options;
  options.trials = 8;
  options.samples = 20;
  options.cache = &cache;

  std::cout << "LeNet-5 under ReRAM programming variation, 2-bit cells ("
            << options.trials << " fabrics x " << options.samples
            << " samples per point)\n\n";
  report::Table table({"Sigma", "Mean agreement", "95% CI",
                       "Mean max |logit diff|"});
  for (const double sigma : {0.0, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3}) {
    reram::FaultConfig faults;
    faults.program_sigma = sigma;
    faults.cell_bits = 2;
    const reram::RobustnessReport r =
        reram::monte_carlo_robustness(model, shapes, faults, options);
    std::string ci = "[";
    ci += report::format_fixed(r.accuracy_ci_lower, 3);
    ci += ", ";
    ci += report::format_fixed(r.accuracy_ci_upper, 3);
    ci += "]";
    table.add_row({report::format_fixed(sigma, 3),
                   report::format_fixed(r.mean_accuracy, 3), ci,
                   report::format_fixed(r.mean_logit_error, 4)});
  }
  table.print(std::cout);
  std::cout << "\nShape: agreement holds for small programming noise and "
               "collapses as variation approaches the weight scale — the "
               "regime where variability-aware controllers are needed.\n";
  return 0;
}
