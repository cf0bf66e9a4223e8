// End-to-end deployment workflow (the full Fig. 6 path), built on the
// DeploymentPlan IR:
//   1. run the RL search on LeNet-5,
//   2. compile the winning strategy into an immutable DeploymentPlan — the
//      single artifact every downstream stage consumes — and round-trip it
//      through its JSON form, as a deployment flow would from a file,
//   3. place the plan's tiles on the chip's bank grid,
//   4. compile a Global Controller program and run the checked decoder,
//   5. report weight-programming cost and interconnect traffic,
//   6. execute real inference on the plan-configured fabric.
#include <iostream>
#include <sstream>

#include "autohet/search.hpp"
#include "nn/model_zoo.hpp"
#include "reram/controller.hpp"
#include "reram/functional.hpp"
#include "reram/noc.hpp"
#include "reram/programming.hpp"
#include "report/serialize.hpp"
#include "report/table.hpp"
#include "tensor/ops.hpp"

using namespace autohet;

int main() {
  const nn::NetworkSpec net = nn::lenet5();

  // --- 1. search ---
  core::EnvConfig env_cfg;
  env_cfg.candidates = mapping::hybrid_candidates();
  env_cfg.accel.tile_shared = true;
  const core::CrossbarEnv env(net.mappable_layers(), env_cfg);
  core::SearchConfig search_cfg;
  search_cfg.episodes = 80;
  search_cfg.seed = 11;
  const auto result = core::AutoHetSearch(env, search_cfg).run();

  // --- 2. compile to a DeploymentPlan, round-trip through JSON ---
  const plan::DeploymentPlan compiled =
      env.compile(result.best_actions, net.name);
  std::ostringstream plan_json;
  report::write_plan_json(plan_json, compiled);
  const plan::DeploymentPlan plan = report::read_plan_json(plan_json.str());
  std::cout << "Learned strategy (Fig. 6):";
  const auto shapes = plan.shapes();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    std::cout << " L" << i + 1 << ":" << shapes[i].name();
  }
  std::cout << "\nCompiled plan: " << plan.layers.size() << " layers, "
            << plan.allocation.occupied_tiles() << " tiles ("
            << plan_json.str().size() << " bytes of JSON)\n";

  // --- 3. placement ---
  reram::ChipSpec chip;
  chip.banks = 1;
  chip.bank.tile_rows = 16;
  chip.bank.tile_cols = 16;
  const auto placement = reram::place_tiles(plan.allocation.tiles, chip);
  std::cout << "Placed " << placement.tiles_placed << " tiles on "
            << placement.banks_used << " bank(s), chip occupancy "
            << report::format_fixed(placement.chip_occupancy * 100.0, 1)
            << "%\n";

  // --- 4. Global Controller program ---
  const auto program = reram::compile_program(plan.layers, plan.allocation);
  const auto stats = reram::execute_program(program);
  std::cout << "GC program: " << stats.instructions << " instructions, "
            << stats.tiles_configured << " tiles configured, "
            << stats.mvms_issued << " MVMs issued, " << stats.layers_executed
            << " layers executed\n";
  std::cout << "First instructions:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, program.size()); ++i) {
    std::cout << "  " << program[i].to_string() << '\n';
  }

  // --- 5a. deployment (weight programming) cost ---
  const auto programming =
      reram::evaluate_programming(plan.allocation, plan.accel.device);
  std::cout << "Programming cost: " << programming.cells_programmed
            << " cells, "
            << report::format_fixed(programming.energy_nj, 1) << " nJ, "
            << report::format_sci(programming.latency_ns, 2)
            << " ns wall-clock\n";

  // --- 5b. interconnect traffic ---
  const auto noc = reram::evaluate_noc(plan.layers, plan.allocation,
                                       placement);
  std::cout << "Interconnect: " << noc.total_bytes
            << " bytes/inference over mean "
            << report::format_fixed(noc.mean_hops, 2) << " hops ("
            << report::format_fixed(noc.total_energy_nj, 2) << " nJ)\n";

  // --- 6. inference on the plan-configured fabric ---
  common::Rng weight_rng(3);
  const nn::Model model(net, weight_rng);
  const reram::SimulatedModel fabric(model, plan);
  common::Rng img_rng(4);
  int agree = 0;
  constexpr int kSamples = 5;
  for (int s = 0; s < kSamples; ++s) {
    const auto img = nn::synthetic_image(img_rng, 1, 32, 32);
    if (tensor::argmax(model.forward(img)) ==
        tensor::argmax(fabric.forward(img))) {
      ++agree;
    }
  }
  std::cout << "Inference on deployed fabric: " << agree << '/' << kSamples
            << " argmax agreement with float reference\n";
  return 0;
}
