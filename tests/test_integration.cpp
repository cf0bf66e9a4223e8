// Cross-module integration tests: the paper's headline claims, end to end.
#include <gtest/gtest.h>

#include "autohet/baselines.hpp"
#include "autohet/search.hpp"
#include "nn/model_zoo.hpp"
#include "reram/functional.hpp"
#include "tensor/ops.hpp"

namespace autohet {
namespace {

using core::AutoHetSearch;
using core::CrossbarEnv;
using core::EnvConfig;
using core::SearchConfig;

CrossbarEnv paper_env(const nn::NetworkSpec& net, bool tile_shared = true) {
  EnvConfig cfg;
  cfg.candidates = mapping::hybrid_candidates();  // §4.1 AutoHet candidates
  cfg.accel.tile_shared = tile_shared;
  return CrossbarEnv(net.mappable_layers(), cfg);
}

CrossbarEnv baseline_env(const nn::NetworkSpec& net) {
  EnvConfig cfg;
  cfg.candidates = mapping::square_candidates();  // §4.1 homogeneous sizes
  cfg.accel.tile_shared = false;
  return CrossbarEnv(net.mappable_layers(), cfg);
}

TEST(Integration, AutoHetBeatsAllHomogeneousBaselinesOnVgg16) {
  // Fig. 9(a): AutoHet has the highest RUE for VGG16.
  const auto homo_env = baseline_env(nn::vgg16());
  const auto auto_env = paper_env(nn::vgg16());
  SearchConfig cfg;
  cfg.episodes = 150;
  cfg.warmup_episodes = 25;
  cfg.seed = 1;
  const auto result = AutoHetSearch(auto_env, cfg).run();
  for (const auto& homo : core::homogeneous_sweep(homo_env)) {
    EXPECT_GT(result.best_report.rue(), homo.report.rue()) << homo.name;
  }
}

TEST(Integration, AutoHetEnergyFarBelowSmallCrossbarBaseline) {
  // "reduces energy consumption by up to 94.6%": against the small-crossbar
  // homogeneous baselines the learned config must cut energy drastically.
  const auto homo_env = baseline_env(nn::vgg16());
  const auto auto_env = paper_env(nn::vgg16());
  SearchConfig cfg;
  cfg.episodes = 120;
  cfg.seed = 2;
  const auto result = AutoHetSearch(auto_env, cfg).run();
  const auto homo32 = core::evaluate_homogeneous_strategy(homo_env, 0);
  const double reduction = 1.0 - result.best_report.energy.total_nj() /
                                     homo32.report.energy.total_nj();
  EXPECT_GT(reduction, 0.80);
}

TEST(Integration, TileSharingReducesOccupiedTilesOnAllPaperModels) {
  // Table 4 shape: All (+tile-shared) occupies fewer tiles than +Hy.
  for (const auto& net : nn::paper_workloads()) {
    const auto layers = net.mappable_layers();
    reram::AcceleratorConfig base_cfg;
    base_cfg.tile_shared = false;
    reram::AcceleratorConfig shared_cfg;
    shared_cfg.tile_shared = true;
    const std::vector<mapping::CrossbarShape> shapes(
        layers.size(), mapping::CrossbarShape{72, 64});
    const auto base = plan::evaluate_plan(
        plan::compile_plan(net.name, layers, shapes, base_cfg));
    const auto shared = plan::evaluate_plan(
        plan::compile_plan(net.name, layers, shapes, shared_cfg));
    EXPECT_LT(shared.occupied_tiles, base.occupied_tiles) << net.name;
  }
}

TEST(Integration, FunctionalInferenceOnSearchedConfiguration) {
  // Run the RL search on LeNet, then execute actual inference on the
  // resulting heterogeneous fabric and compare with the float reference.
  const auto net = nn::lenet5();
  const auto env = paper_env(net);
  SearchConfig cfg;
  cfg.episodes = 60;
  cfg.warmup_episodes = 15;
  cfg.seed = 5;
  const auto result = AutoHetSearch(env, cfg).run();

  std::vector<mapping::CrossbarShape> shapes;
  for (auto a : result.best_actions) shapes.push_back(env.candidates()[a]);

  common::Rng rng(6);
  const nn::Model model(net, rng);
  const reram::SimulatedModel sim(model, shapes);
  common::Rng img_rng(7);
  const auto input = nn::synthetic_image(img_rng, 1, 32, 32);
  const auto reference = model.forward(input);
  const auto simulated = sim.forward(input);
  const float scale = std::max(1.0f, reference.abs_max());
  EXPECT_LT(tensor::max_abs_diff(reference, simulated) / scale, 0.08f);
}

TEST(Integration, UtilizationEnergyParetoAcrossCandidates) {
  // §2.2.3: small crossbars win utilization, large crossbars win energy,
  // for every paper model. (The exact 32-vs-64 utilization order can flip
  // because floor(64/9)/64 packs 3x3 kernels tighter than floor(32/9)/32;
  // from 64x64 upward the ordering is strict — see EXPERIMENTS.md.)
  for (const auto& net : nn::paper_workloads()) {
    const auto env = baseline_env(net);
    const auto sweep = core::homogeneous_sweep(env);
    // Energy: monotone non-increasing with crossbar size.
    for (std::size_t i = 1; i < sweep.size(); ++i) {
      EXPECT_LE(sweep[i].report.energy.total_nj(),
                sweep[i - 1].report.energy.total_nj() * (1 + 1e-9))
          << net.name << " size index " << i;
    }
    // Utilization: monotone decreasing from 64x64 upward, and the smallest
    // sizes beat the largest by a wide margin.
    for (std::size_t i = 2; i < sweep.size(); ++i) {
      EXPECT_LE(sweep[i].report.utilization,
                sweep[i - 1].report.utilization + 1e-9)
          << net.name << " size index " << i;
    }
    EXPECT_GT(sweep.front().report.utilization,
              sweep.back().report.utilization)
        << net.name;
  }
}

TEST(Integration, AutoHetAreaSmallestAmongAccelerators) {
  // Table 5 shape: AutoHet's area beats every homogeneous accelerator.
  const auto homo_env = baseline_env(nn::vgg16());
  const auto auto_env = paper_env(nn::vgg16());
  SearchConfig cfg;
  cfg.episodes = 120;
  cfg.seed = 4;
  const auto result = AutoHetSearch(auto_env, cfg).run();
  for (const auto& homo : core::homogeneous_sweep(homo_env)) {
    EXPECT_LT(result.best_report.area.total_um2(),
              homo.report.area.total_um2())
        << homo.name;
  }
}

}  // namespace
}  // namespace autohet
