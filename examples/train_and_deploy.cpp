// The full application workflow a user of the accelerator walks through:
//
//   1. train LeNet-5 on a (synthetic) 10-class image task,
//   2. search a heterogeneous crossbar configuration for it with AutoHet,
//   3. deploy the trained, 8-bit-quantized weights onto the simulated
//      fabric with that configuration,
//   4. measure classification accuracy: float reference vs fabric, with
//      and without ReRAM programming variation burned into 2-bit cells
//      (FaultConfig::program_sigma) — the end-to-end number the whole
//      stack exists to preserve.
#include <iostream>

#include "autohet/search.hpp"
#include "nn/model_zoo.hpp"
#include "nn/train.hpp"
#include "reram/functional.hpp"
#include "report/table.hpp"
#include "tensor/ops.hpp"

using namespace autohet;

int main() {
  // --- 1. train ---
  const nn::NetworkSpec net = nn::lenet5();
  common::Rng weight_rng(31);
  nn::Model model(net, weight_rng);
  common::Rng data_rng(32);
  const auto train_set =
      nn::make_synthetic_dataset(data_rng, 400, 10, 1, 32, 32, 0.35f);
  // Held-out set: fresh samples from the same class prototypes.
  const auto test_set =
      nn::sample_from_prototypes(data_rng, 100, train_set.prototypes, 0.35f);

  nn::TrainConfig train_cfg;
  train_cfg.epochs = 3;
  train_cfg.learning_rate = 0.01f;
  common::Rng train_rng(33);
  std::cout << "Training LeNet-5 on synthetic 10-class data ("
            << train_set.size() << " samples)...\n";
  const auto stats = nn::train(model, train_set, train_cfg, train_rng);
  for (std::size_t e = 0; e < stats.epoch_loss.size(); ++e) {
    std::cout << "  epoch " << e + 1 << ": loss "
              << report::format_fixed(stats.epoch_loss[e], 4) << ", accuracy "
              << report::format_fixed(stats.epoch_accuracy[e] * 100.0f, 1)
              << "%\n";
  }

  // --- 2. search a configuration ---
  core::EnvConfig env_cfg;
  env_cfg.candidates = mapping::hybrid_candidates();
  env_cfg.accel.tile_shared = true;
  const core::CrossbarEnv env(net.mappable_layers(), env_cfg);
  core::SearchConfig search_cfg;
  search_cfg.episodes = 60;
  search_cfg.seed = 34;
  const auto search = core::AutoHetSearch(env, search_cfg).run();
  std::vector<mapping::CrossbarShape> shapes;
  for (auto a : search.best_actions) shapes.push_back(env.candidates()[a]);

  // --- 3 & 4. deploy and measure ---
  const double float_acc = nn::evaluate_accuracy(model, test_set);
  const auto fabric_accuracy = [&](double sigma) {
    reram::FaultConfig faults;
    faults.program_sigma = sigma;
    faults.cell_bits = 2;
    const reram::SimulatedModel fabric(model, shapes,
                                       reram::DatapathMode::kInteger, faults);
    return nn::evaluate_accuracy_with(
        [&fabric](const tensor::Tensor& img) {
          return tensor::argmax(fabric.forward(img));
        },
        test_set);
  };

  std::cout << "\nHeld-out accuracy (" << test_set.size() << " samples):\n";
  report::Table table({"Deployment", "Accuracy %"});
  table.add_row({"float reference",
                 report::format_fixed(float_acc * 100.0, 1)});
  table.add_row({"ReRAM fabric (8-bit)",
                 report::format_fixed(fabric_accuracy(0.0) * 100.0, 1)});
  table.add_row({"ReRAM fabric + program sigma 0.1",
                 report::format_fixed(fabric_accuracy(0.1) * 100.0, 1)});
  table.add_row({"ReRAM fabric + program sigma 0.2",
                 report::format_fixed(fabric_accuracy(0.2) * 100.0, 1)});
  table.print(std::cout);

  std::cout << "\nCrossbar configuration used: ";
  for (const auto& s : shapes) std::cout << s.name() << ' ';
  std::cout << "\n(RUE "
            << report::format_sci(search.best_report.rue(), 3)
            << ", energy "
            << report::format_sci(search.best_report.energy.total_nj(), 3)
            << " nJ per inference)\n";
  return 0;
}
