// Reproduces the §4.5 search-time analysis: wall-clock of a 300-round RL
// search on VGG16 and the share of time spent waiting on the simulator.
// The paper measures 49.2 minutes with 97% in (their Python) simulator; our
// C++ behavioral model is orders of magnitude faster, so the interesting
// reproducible quantity is the *split*, plus a demonstration that episode
// evaluation parallelizes across a thread pool.
//
// Also emits BENCH_search_time.json with episodes/sec, the stage split, the
// evaluation-engine cache hit rate, and `learning_speedup_vs_portable`: the
// same replayed DDPG update sequence timed under the portable RL kernels and
// under the active variant, in this process (a same-host ratio, so it gates
// without cross-host slack).
//
// Usage: search_time [episodes] [--kernel <variant>]   (default 300, the
// paper's setting)
#include <algorithm>
#include <chrono>
#include <fstream>

#include "bench_common.hpp"
#include "common/thread_pool.hpp"
#include "rl/ddpg.hpp"

using namespace autohet;

namespace {

struct UpdateTiming {
  double seconds = 0.0;
  double loss_sum = 0.0;  ///< Σ critic loss: equal across bit-identical runs
};

/// Times `updates` DDPG updates under RL kernel variant `v`, replayed from a
/// fixed seed: the same agent, the same transition pool (VGG16-sized
/// episodes of 16 layers) and the same minibatch draws on every call.
UpdateTiming time_replayed_updates(rl::kernels::Variant v, int updates) {
  rl::kernels::set_variant(v);
  rl::DdpgAgent agent(rl::DdpgConfig{}, common::Rng(17));
  common::Rng rng(18);
  constexpr int kLayers = 16;
  for (int i = 0; i < 100 * kLayers; ++i) {
    rl::Transition t;
    t.state.resize(10);
    t.next_state.resize(10);
    for (auto& x : t.state) x = rng.uniform(0.0, 1.0);
    for (auto& x : t.next_state) x = rng.uniform(0.0, 1.0);
    t.action = rng.uniform(0.0, 1.0);
    t.reward = rng.uniform(0.0, 1.0);
    t.terminal = (i % kLayers) == kLayers - 1;
    agent.remember(std::move(t));
  }
  UpdateTiming out;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < updates; ++i) out.loss_sum += agent.update();
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int episodes = bench::episodes_from_args(argc, argv, 300);
  bench::print_header("§4.5 — RL search time (VGG16, " +
                      std::to_string(episodes) + " rounds)");

  const auto env = bench::make_env(nn::vgg16(), mapping::hybrid_candidates(),
                                   /*tile_shared=*/true);
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = bench::run_search(env, episodes);
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto search_cache = env.engine().cache_stats();

  report::Table table({"Stage", "Seconds", "Share %"});
  const auto add = [&](const std::string& name, double s) {
    table.add_row({name, report::format_fixed(s, 3),
                   report::format_fixed(100.0 * s / total, 1)});
  };
  add("decision (actor forward)", result.decision_seconds);
  add("simulator (hardware feedback)", result.simulator_seconds);
  add("learning (replay updates)", result.learning_seconds);
  add("total wall-clock", total);
  table.print(std::cout);
  std::cout << "Best reward found: " << result.best_reward << "\n";
  std::cout << "Episodes/sec: " << report::format_fixed(episodes / total, 1)
            << ", eval-engine hit rate: "
            << report::format_fixed(100.0 * search_cache.hit_rate(), 1)
            << "% (" << search_cache.hits << " hits / "
            << search_cache.misses << " misses)\n";

  // Throughput of raw simulator evaluations, serial vs thread pool — the
  // component the paper attributes 97% of its search time to.
  constexpr int kEvals = 256;
  std::vector<std::vector<std::size_t>> configs;
  common::Rng rng(9);
  for (int i = 0; i < kEvals; ++i) {
    std::vector<std::size_t> actions(env.num_layers());
    for (auto& a : actions) a = rng.uniform_u64(env.num_actions());
    configs.push_back(std::move(actions));
  }
  const auto serial_start = std::chrono::steady_clock::now();
  for (const auto& c : configs) (void)env.evaluate(c);
  const double serial =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    serial_start)
          .count();
  common::ThreadPool pool;
  const auto par_start = std::chrono::steady_clock::now();
  pool.parallel_for(0, configs.size(),
                    [&](std::size_t i) { (void)env.evaluate(configs[i]); });
  const double parallel =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    par_start)
          .count();
  std::cout << "\nSimulator throughput (" << kEvals << " VGG16 evaluations): "
            << report::format_fixed(kEvals / serial, 0) << "/s serial, "
            << report::format_fixed(kEvals / parallel, 0) << "/s across "
            << pool.size() << " threads\n";

  // ---- robustness-aware search overhead (LeNet-5) ----
  // The kRobustnessAware objective with a measured Monte-Carlo reward runs
  // a budgeted fault-injection evaluation inside the search loop. The
  // adaptive budget plus the engine's robustness memo must keep that search
  // within ~2x the plain Eq. 2 wall clock (the gated `mc_over_plain`).
  constexpr int kRobustEpisodes = 500;
  const nn::NetworkSpec lenet = nn::lenet5();
  common::Rng lenet_rng(21);
  const nn::Model lenet_model(lenet, lenet_rng);
  core::EnvConfig plain_cfg;
  plain_cfg.candidates = mapping::hybrid_candidates();
  plain_cfg.accel = bench::paper_accel(/*tile_shared=*/true);
  const core::CrossbarEnv plain_env(lenet.mappable_layers(), plain_cfg);
  const auto plain_start = std::chrono::steady_clock::now();
  const auto plain_result = bench::run_search(plain_env, kRobustEpisodes);
  const double plain_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    plain_start)
          .count();

  core::EnvConfig mc_cfg = plain_cfg;
  mc_cfg.objective = core::RewardObjective::kRobustnessAware;
  mc_cfg.accel.faults.stuck_at_zero_rate = 5e-4;
  mc_cfg.accel.faults.stuck_at_one_rate = 5e-4;
  mc_cfg.accel.faults.program_sigma = 0.01;
  mc_cfg.accel.faults.cell_bits = 2;
  mc_cfg.mc_reward_model = &lenet_model;
  const core::CrossbarEnv mc_env(lenet.mappable_layers(), mc_cfg);
  const auto mc_start = std::chrono::steady_clock::now();
  const auto mc_result = bench::run_search(mc_env, kRobustEpisodes);
  const double mc_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    mc_start)
          .count();
  const auto rob_memo = mc_env.engine().robustness_cache_stats();
  const double mc_over_plain =
      plain_seconds > 0.0 ? mc_seconds / plain_seconds : 0.0;
  std::cout << "\nRobustness-aware search (LeNet-5, " << kRobustEpisodes
            << " rounds): plain " << report::format_fixed(plain_seconds, 3)
            << "s, measured-MC reward " << report::format_fixed(mc_seconds, 3)
            << "s (" << report::format_fixed(mc_over_plain, 2)
            << "x), MC memo hit rate "
            << report::format_fixed(100.0 * rob_memo.hit_rate(), 1) << "% ("
            << rob_memo.hits << " hits / " << rob_memo.misses << " misses)\n";

  // ---- DDPG learning: active RL kernel variant vs the portable reference --
  // Alternating repetitions, fastest of each: other tenants only ever slow
  // a run down.
  constexpr int kReplayedUpdates = 1000;
  const rl::kernels::Variant rl_active = rl::kernels::active_variant();
  double portable_s = 0.0, active_s = 0.0;
  bool learning_identical = true;
  for (int rep = 0; rep < 3; ++rep) {
    const UpdateTiming p =
        time_replayed_updates(rl::kernels::Variant::kPortable,
                              kReplayedUpdates);
    const UpdateTiming a = time_replayed_updates(rl_active, kReplayedUpdates);
    portable_s = rep == 0 ? p.seconds : std::min(portable_s, p.seconds);
    active_s = rep == 0 ? a.seconds : std::min(active_s, a.seconds);
    learning_identical = learning_identical && p.loss_sum == a.loss_sum;
  }
  rl::kernels::set_variant(rl_active);
  const double learning_speedup = active_s > 0.0 ? portable_s / active_s : 0.0;
  std::cout << "\nDDPG learning (" << kReplayedUpdates
            << " replayed updates): portable "
            << report::format_fixed(1e6 * portable_s / kReplayedUpdates, 1)
            << " us/update, " << rl::kernels::variant_name(rl_active) << " "
            << report::format_fixed(1e6 * active_s / kReplayedUpdates, 1)
            << " us/update (" << report::format_fixed(learning_speedup, 2)
            << "x), losses " << (learning_identical ? "identical" : "DIFFER")
            << "\n";

  // ---- machine-readable summary ----
  std::ofstream json("BENCH_search_time.json");
  json << "{\n"
       << "  \"benchmark\": \"search_time\",\n"
       << "  \"model\": \"vgg16\",\n"
       << "  \"episodes\": " << episodes << ",\n"
       << "  \"rl_kernel\": \"" << rl::kernels::variant_name(rl_active)
       << "\",\n"
       << "  \"learning\": {\n"
       << "    \"replayed_updates\": " << kReplayedUpdates << ",\n"
       << "    \"portable_seconds\": " << portable_s << ",\n"
       << "    \"active_seconds\": " << active_s << ",\n"
       << "    \"identical\": " << (learning_identical ? "true" : "false")
       << "\n"
       << "  },\n"
       << "  \"learning_speedup_vs_portable\": " << learning_speedup << ",\n"
       << "  \"after\": {\n"
       << "    \"total_seconds\": " << total << ",\n"
       << "    \"episodes_per_second\": " << episodes / total << ",\n"
       << "    \"decision_seconds\": " << result.decision_seconds << ",\n"
       << "    \"simulator_seconds\": " << result.simulator_seconds << ",\n"
       << "    \"learning_seconds\": " << result.learning_seconds << ",\n"
       << "    \"best_reward\": " << result.best_reward << ",\n"
       << "    \"cache_hits\": " << search_cache.hits << ",\n"
       << "    \"cache_misses\": " << search_cache.misses << ",\n"
       << "    \"cache_hit_rate\": " << search_cache.hit_rate() << ",\n"
       << "    \"serial_evals_per_second\": " << kEvals / serial << ",\n"
       << "    \"pooled_evals_per_second\": " << kEvals / parallel << "\n"
       << "  },\n"
       << "  \"robust_search\": {\n"
       << "    \"model\": \"lenet5\",\n"
       << "    \"episodes\": " << kRobustEpisodes << ",\n"
       << "    \"plain_seconds\": " << plain_seconds << ",\n"
       << "    \"mc_seconds\": " << mc_seconds << ",\n"
       << "    \"mc_over_plain\": " << mc_over_plain << ",\n"
       << "    \"plain_best_reward\": " << plain_result.best_reward << ",\n"
       << "    \"mc_best_reward\": " << mc_result.best_reward << ",\n"
       << "    \"mc_memo_hits\": " << rob_memo.hits << ",\n"
       << "    \"mc_memo_misses\": " << rob_memo.misses << ",\n"
       << "    \"mc_memo_hit_rate\": " << rob_memo.hit_rate() << "\n"
       << "  }\n";
  json << "}\n";
  std::cout << "\nWrote BENCH_search_time.json\n";
  return 0;
}
