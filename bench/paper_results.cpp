// The paper's evaluation in one program: one section per figure or table
// (Figs. 3-5, 9-11, Tables 3-5) and per extension ablation, each printing
// the rows/series the paper reports. Absolute values are model-dependent,
// shapes are the target (see EXPERIMENTS.md, which presents the sections
// in the order `all` runs them).
//
// Usage: paper_results [section] [--episodes N]
//   section    — one kSections name, or `all` (default).
//   --episodes — RL search episodes for every search section; without it
//                each keeps its kSections default.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mapping/plan.hpp"
#include "mapping/tile_allocator.hpp"
#include "report/serialize.hpp"
#include "reram/bank.hpp"
#include "reram/components.hpp"
#include "reram/eval_engine.hpp"
#include "reram/noc.hpp"
#include "reram/pipeline.hpp"
#include "reram/scheduler.hpp"

using namespace autohet;

namespace {

/// ResNet152 episodes are heavier (156 layers); trim to keep the harness
/// runtime reasonable — convergence is driven by per-layer transitions, of
/// which ResNet episodes generate 10x more.
int network_episodes(const nn::NetworkSpec& net, int episodes) {
  return net.name == "ResNet152" ? std::max(20, episodes / 2) : episodes;
}

/// `shape` on every mappable layer of `net`.
std::vector<mapping::CrossbarShape> uniform(const nn::NetworkSpec& net,
                                            mapping::CrossbarShape shape) {
  return std::vector<mapping::CrossbarShape>(net.mappable_layers().size(),
                                             shape);
}

/// The hardware report of `net` with one crossbar shape per mappable layer.
reram::NetworkReport evaluate_shapes(
    const nn::NetworkSpec& net,
    const std::vector<mapping::CrossbarShape>& shapes,
    const reram::AcceleratorConfig& accel) {
  return plan::evaluate_plan(
      plan::compile_plan(net.name, net.mappable_layers(), shapes, accel));
}

// Fig. 3: homogeneous square crossbars (32..512) vs the manual heterogeneous
// assignment (512x512 for VGG16's first ten layers, 256x256 for the last
// six) — utilization, energy, and RUE.
void fig03_motivation(int /*episodes*/) {
  bench::print_header(
      "Fig. 3 — homogeneous vs manual-heterogeneous crossbars (VGG16)");
  const auto net = nn::vgg16();
  const auto env =
      bench::make_env(net, mapping::square_candidates(), /*tile_shared=*/false);

  report::Table table({"Config", "Utilization %", "Energy (nJ)", "RUE"});
  for (const auto& homo : core::homogeneous_sweep(env)) {
    table.add_row(bench::metric_row(homo.name, homo.report));
  }
  // The paper's manual split: 512x512 head (first 10 layers), 256x256 tail.
  const auto manual = core::manual_hetero(env, 4, 3, 10);
  table.add_row(bench::metric_row("Manual-Hetero(10x512,6x256)",
                                  manual.report));
  // A nearby manual split that tops every homogeneous config in this model
  // (256x256 for the FC tail only); see EXPERIMENTS.md for the discussion.
  const auto fc_tail = core::manual_hetero(env, 4, 3, 13);
  table.add_row(bench::metric_row("Manual-Hetero(13x512,3x256)",
                                  fc_tail.report));
  table.print(std::cout);

  std::cout << "\nPaper shape: small crossbars win utilization, big ones win "
               "energy; manual heterogeneity tops RUE.\n";
}

// Fig. 4: proportion of empty crossbars for the first four VGG16 layers on
// 64x64 crossbars, with 4/8/16/32 crossbars per tile.
void fig04_empty_crossbars(int /*episodes*/) {
  bench::print_header(
      "Fig. 4 — empty-crossbar proportion vs tile size (VGG16 L1-L4, 64x64)");
  const auto mappable = nn::vgg16().mappable_layers();
  const std::vector<nn::LayerSpec> layers(mappable.begin(),
                                          mappable.begin() + 4);
  const std::vector<mapping::CrossbarShape> shapes(4, {64, 64});

  report::Table table({"XBs/tile", "L1 empty %", "L2 empty %", "L3 empty %",
                       "L4 empty %", "Average %"});
  for (std::int64_t xbs : {4, 8, 16, 32}) {
    const auto result =
        mapping::allocate_tiles(layers, shapes, xbs, /*tile_shared=*/false);
    std::vector<std::string> row = {std::to_string(xbs)};
    double total = 0.0;
    for (const auto& layer : result.layers) {
      const double allocated =
          static_cast<double>(layer.tiles_allocated * xbs);
      const double empty =
          allocated - static_cast<double>(layer.mapping.logical_crossbars());
      const double pct = 100.0 * empty / allocated;
      total += pct;
      row.push_back(report::format_fixed(pct, 1));
    }
    row.push_back(report::format_fixed(total / 4.0, 1));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nPaper shape: average empty fraction ~24% at 4 XBs/tile "
               "rising to ~60% at 32.\n";
}

// Fig. 5: the same DNN layer (128 kernels of 3x3x12) mapped onto 64x64 vs
// 128x128 crossbars — utilization and activated ADCs. Exact-match anchor:
// utilization 27/32 vs 27/128 (tile level), ADCs 256 vs 128. Reads both rows
// straight from the EvaluationEngine's precomputed L×C layer-report table —
// the same table the RL search consumes.
void fig05_size_tradeoff(int /*episodes*/) {
  bench::print_header("Fig. 5 — one layer (k=3, Cin=12, Cout=128) on 64x64 "
                      "vs 128x128 crossbars");
  const auto layer = nn::make_conv(12, 128, 3, 1, 1, 16, 16);
  const auto config = bench::paper_accel();  // 4 PEs/tile as in the figure
  const std::vector<mapping::CrossbarShape> shapes{{64, 64}, {128, 128}};
  const reram::EvaluationEngine engine({layer}, shapes, config);

  report::Table table({"Crossbar", "Logical XBs", "Activated ADCs",
                       "Utilization (tile)", "Utilization (Eq.4)",
                       "ADC energy (nJ)"});
  for (std::size_t c = 0; c < shapes.size(); ++c) {
    const auto& lr = engine.layer_report(0, c);
    const auto net = engine.evaluate(std::vector<std::size_t>{c});
    table.add_row({shapes[c].name(), std::to_string(lr.logical_crossbars),
                   std::to_string(lr.adc_instances),
                   report::format_fixed(net.utilization, 4),
                   report::format_fixed(lr.utilization, 4),
                   report::format_fixed(lr.energy.adc_nj, 1)});
  }
  table.print(std::cout);
  std::cout << "\nPaper anchors: XB64 -> util 27/32 = 0.8438, 256 ADCs;  "
               "XB128 -> util 27/128 = 0.2109, 128 ADCs.\n";
}

// Fig. 9(a-c): overall RUE, crossbar utilization and normalized energy of
// the five homogeneous accelerators and AutoHet, for AlexNet, VGG16 and
// ResNet152.
void fig09_overall(int episodes) {
  bench::print_header("Fig. 9 — overall performance (5 homogeneous + AutoHet)");

  for (const auto& net : nn::paper_workloads()) {
    const int eps = network_episodes(net, episodes);
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
}

// Fig. 10: the impact of each AutoHet technique, enabled one by one, on
// RUE / utilization / energy for the three models:
//   Base  = best homogeneous square accelerator,
//   +He   = RL search over heterogeneous square crossbars (SXBs),
//   +Hy   = RL search over hybrid squares + rectangles (the paper's five),
//   All   = +Hy plus the tile-shared allocation scheme.
void fig10_ablation(int episodes) {
  bench::print_header("Fig. 10 — impact of individual techniques");

  for (const auto& net : nn::paper_workloads()) {
    const int eps = network_episodes(net, episodes);
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
}

// Table 3: the crossbar size assigned to each VGG16 layer under Base (best
// homogeneous), +He (RL over squares) and +Hy (RL over hybrid squares +
// rectangles).
void table3_layer_sizes(int episodes) {
  bench::print_header("Table 3 — per-layer crossbar sizes for VGG16");
  const auto net = nn::vgg16();

  const auto square_env = bench::make_env(net, mapping::square_candidates(),
                                          /*tile_shared=*/false);
  const auto base = core::best_homogeneous(square_env);
  const auto he = bench::run_search(square_env, episodes);
  const auto hy_env = bench::make_env(net, mapping::hybrid_candidates(),
                                      /*tile_shared=*/false);
  const auto hy = bench::run_search(hy_env, episodes);

  report::Table table({"Layer", "Spec", "Base", "+He", "+Hy"});
  const auto layers = net.mappable_layers();
  for (std::size_t k = 0; k < layers.size(); ++k) {
    // += instead of "L" + to_string(...): GCC 12 -Wrestrict false positive
    // on the inlined temporary-string operator+ chain (GCC bug 105329).
    std::string label = "L";
    label += std::to_string(k + 1);
    table.add_row(
        {label, layers[k].to_string(),
         square_env.candidates()[base.actions[k]].name(),
         square_env.candidates()[he.best_actions[k]].name(),
         hy_env.candidates()[hy.best_actions[k]].name()});
  }
  table.print(std::cout);
  std::cout << "\nPaper shape: Base is uniform; +He diversifies a few layers "
               "(256 vs 512); +Hy shifts to rectangle shapes (288x256 / "
               "576x512).\n";
}

// Table 4: the number of occupied tiles under +Hy (hybrid candidates,
// exclusive tiles) and All (+ tile-shared allocation) for the three models.
// The same learned configuration is evaluated under both allocators so the
// delta isolates the tile-shared scheme.
void table4_tiles(int episodes) {
  bench::print_header("Table 4 — occupied tiles: +Hy vs All (tile-shared)");

  report::Table table({"Model", "+Hy tiles", "All tiles", "Reduction %"});
  for (const auto& net : nn::paper_workloads()) {
    const auto hy_env = bench::make_env(net, mapping::hybrid_candidates(),
                                        /*tile_shared=*/false);
    const auto hy = bench::run_search(hy_env, network_episodes(net, episodes));

    // Same per-layer shapes, re-evaluated with the tile-shared allocator.
    std::vector<mapping::CrossbarShape> shapes;
    for (auto a : hy.best_actions) shapes.push_back(hy_env.candidates()[a]);
    const auto all =
        evaluate_shapes(net, shapes, bench::paper_accel(/*tile_shared=*/true));

    const auto hy_tiles = hy.best_report.occupied_tiles;
    const auto all_tiles = all.occupied_tiles;
    table.add_row({net.name, std::to_string(hy_tiles),
                   std::to_string(all_tiles),
                   report::format_fixed(
                       100.0 * static_cast<double>(hy_tiles - all_tiles) /
                           static_cast<double>(hy_tiles),
                       1)});
  }
  table.print(std::cout);
  std::cout << "\nPaper: 33->31 (AlexNet), 30->27 (VGG16), 246->232 "
               "(ResNet152); reductions of 6.1% / 10% / 5.7%.\n";
}

/// One Fig. 11 row: Best-Homo vs AutoHet RUE on VGG16 for one candidate set
/// and tile size.
void run_case(const std::string& label,
              std::vector<mapping::CrossbarShape> candidates,
              std::int64_t pes_per_tile, int episodes, report::Table& table) {
  const auto net = nn::vgg16();
  const auto homo_env = bench::make_env(net, mapping::square_candidates(),
                                        /*tile_shared=*/false, pes_per_tile);
  const auto best_homo = core::best_homogeneous(homo_env);
  const auto auto_env = bench::make_env(net, std::move(candidates),
                                        /*tile_shared=*/true, pes_per_tile);
  const auto result = bench::run_search(auto_env, episodes);
  table.add_row({label, report::format_sci(best_homo.report.rue(), 3),
                 report::format_sci(result.best_report.rue(), 3),
                 report::format_fixed(
                     result.best_report.rue() / best_homo.report.rue(), 2) +
                     "x"});
}

// Fig. 11: sensitivity of AutoHet's RUE on VGG16 to
//   (a) the ratio of square to rectangle crossbar candidates (2S3R/3S2R/4S1R),
//   (b) the number of crossbar candidates (2/4/8),
//   (c) the number of PEs per tile (8/16/32),
// each against the best homogeneous accelerator (Best-Homo).
void fig11_sensitivity(int episodes) {
  bench::print_header("Fig. 11 — sensitivity analysis (VGG16)");

  std::cout << "\n(a) ratio of SXBs to RXBs (5 candidates total):\n";
  report::Table ratio_table({"Mix", "Best-Homo RUE", "AUTOHET RUE", "Gain"});
  run_case("2S3R", mapping::mixed_candidates(2, 3), 4, episodes, ratio_table);
  run_case("3S2R", mapping::mixed_candidates(3, 2), 4, episodes, ratio_table);
  run_case("4S1R", mapping::mixed_candidates(4, 1), 4, episodes, ratio_table);
  ratio_table.print(std::cout);

  std::cout << "\n(b) number of crossbar candidates:\n";
  report::Table count_table(
      {"Candidates", "Best-Homo RUE", "AUTOHET RUE", "Gain"});
  const auto all = mapping::all_candidates();
  run_case("2", {all[all.size() - 1], all[all.size() - 3]}, 4, episodes,
           count_table);
  run_case("4", mapping::mixed_candidates(2, 2), 4, episodes, count_table);
  run_case("8", mapping::mixed_candidates(4, 4), 4, episodes, count_table);
  count_table.print(std::cout);

  std::cout << "\n(c) PEs per tile:\n";
  report::Table pe_table({"PEs/tile", "Best-Homo RUE", "AUTOHET RUE", "Gain"});
  for (std::int64_t pes : {8, 16, 32}) {
    run_case(std::to_string(pes), mapping::hybrid_candidates(), pes, episodes,
             pe_table);
  }
  pe_table.print(std::cout);

  std::cout << "\nPaper shape: AutoHet tops Best-Homo in every setting; more "
               "RXBs and more candidates widen the gap; larger tiles hurt "
               "the homogeneous baseline more.\n";
}

// Table 5: area occupancy and inference latency of the five homogeneous
// accelerators and AutoHet, for VGG16.
void table5_area_latency(int episodes) {
  bench::print_header("Table 5 — area and inference latency (VGG16)");
  const auto net = nn::vgg16();

  const auto homo_env = bench::make_env(net, mapping::square_candidates(),
                                        /*tile_shared=*/false);
  const auto auto_env = bench::make_env(net, mapping::hybrid_candidates(),
                                        /*tile_shared=*/true);
  const auto result = bench::run_search(auto_env, episodes);

  report::Table table({"Accelerator", "Area (um^2)", "Latency (ns)",
                       "Area vs SXB512", "Latency vs best"});
  const auto sweep = core::homogeneous_sweep(homo_env);
  const double area512 = sweep.back().report.area.total_um2();
  double best_latency = result.best_report.latency_ns;
  for (const auto& s : sweep) {
    best_latency = std::min(best_latency, s.report.latency_ns);
  }
  for (const auto& s : sweep) {
    table.add_row({"SXB" + std::to_string(s.report.layers[0].shape.rows),
                   report::format_sci(s.report.area.total_um2(), 2),
                   report::format_sci(s.report.latency_ns, 2),
                   report::format_fixed(
                       s.report.area.total_um2() / area512, 2) + "x",
                   report::format_fixed(
                       s.report.latency_ns / best_latency, 2) + "x"});
  }
  const auto& best = result.best_report;
  table.add_row({"AUTOHET", report::format_sci(best.area.total_um2(), 2),
                 report::format_sci(best.latency_ns, 2),
                 report::format_fixed(best.area.total_um2() / area512, 2) +
                     "x",
                 report::format_fixed(best.latency_ns / best_latency, 2) +
                     "x"});
  table.print(std::cout);
  std::cout << "\nPaper shape: area shrinks monotonically with crossbar "
               "size; AutoHet is smallest (paper: -14% vs SXB512, -92% vs "
               "best-RUE homogeneous) with latency within a few percent of "
               "the fastest accelerator.\n";
}

// Ablation of the RL agent itself: best-so-far reward trajectories of the
// DDPG search vs pure random search at equal evaluation budget, against the
// greedy reference point. Demonstrates that the learning stage (not just
// the evaluation budget) drives the result — the premise behind choosing
// RL in §3.2.
void search_convergence(int episodes) {
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
}

// Ablation: inter-tile interconnect traffic and energy across crossbar
// configurations (extension beyond the paper's core energy model — the bus
// the Global Controller drives in §3.1, quantified).
void ablation_noc(int /*episodes*/) {
  bench::print_header(
      "Ablation — interconnect (NoC) traffic and energy (VGG16)");
  const auto net = nn::vgg16();
  const auto layers = net.mappable_layers();

  report::Table table({"Config", "Tiles", "Total bytes/inf", "Mean hops",
                       "NoC energy (nJ)", "vs core energy %"});
  const auto add_row = [&](const std::string& name,
                           const std::vector<mapping::CrossbarShape>& shapes,
                           bool shared) {
    const auto p = plan::compile_plan(net.name, layers, shapes,
                                      bench::paper_accel(shared));
    const auto core = plan::evaluate_plan(p);
    const auto placement =
        reram::place_tiles(p.allocation.tiles, reram::ChipSpec{});
    const auto noc = reram::evaluate_noc(layers, p.allocation, placement);
    table.add_row(
        {name, std::to_string(core.occupied_tiles),
         std::to_string(noc.total_bytes),
         report::format_fixed(noc.mean_hops, 2),
         report::format_fixed(noc.total_energy_nj, 1),
         report::format_fixed(
             100.0 * noc.total_energy_nj / core.energy.total_nj(), 2)});
  };

  for (const auto& shape : mapping::square_candidates()) {
    add_row(shape.name(), uniform(net, shape), false);
  }
  // The paper's hybrid candidates, all-largest, with tile sharing.
  add_row("576x512+shared", uniform(net, {576, 512}), true);
  table.print(std::cout);
  std::cout << "\nShape: sprawling small-crossbar configurations pay more "
               "hops; interconnect energy stays a small additive share of "
               "the ADC-dominated core energy.\n";
}

// Ablation: layer-pipelined inference throughput and the replication
// (weight-duplication) throughput/area trade — the PipeLayer/ISAAC-style
// balancing the paper's accelerators inherit.
void ablation_pipeline(int /*episodes*/) {
  bench::print_header("Ablation — pipelined throughput vs replication budget "
                      "(VGG16)");
  const auto net = nn::vgg16();
  const auto layers = net.mappable_layers();
  const auto config = bench::paper_accel();

  report::Table table({"Crossbar", "Extra-tile budget",
                       "Bottleneck interval (ns)", "Throughput (inf/s)",
                       "Fill latency (ns)", "Extra tiles used"});
  for (const auto& shape :
       {mapping::CrossbarShape{128, 128}, mapping::CrossbarShape{576, 512}}) {
    const auto p =
        plan::compile_plan(net.name, layers, uniform(net, shape), config);
    for (std::int64_t budget : {0, 16, 64, 256}) {
      const auto rep = reram::balance_replication(p, budget);
      const auto report = reram::evaluate_pipeline(p, rep);
      table.add_row({shape.name(), std::to_string(budget),
                     report::format_sci(report.bottleneck_interval_ns, 3),
                     report::format_fixed(
                         report.throughput_inferences_per_s, 1),
                     report::format_sci(report.fill_latency_ns, 3),
                     std::to_string(report.total_extra_tiles)});
    }
  }
  table.print(std::cout);

  // Where the replication goes: show the balanced factors for one case.
  const auto large =
      plan::compile_plan(net.name, layers, uniform(net, {576, 512}), config);
  const auto rep = reram::balance_replication(large, 64);
  std::cout << "\nReplication factors at budget 64 on 576x512 (layer: copies):"
            << "\n  ";
  for (std::size_t k = 0; k < rep.size(); ++k) {
    if (rep[k] > 1) std::cout << "L" << k + 1 << ":" << rep[k] << "  ";
  }
  std::cout << "\nShape: the budget flows to the large-feature-map early "
               "layers; throughput rises until they are balanced.\n";
}

// Ablation: memristor cell precision. The paper fixes 1-bit cells (§4.1);
// multi-level cells pack more weight bits per device, shrinking the number
// of physical bit planes (8 / cell_bits) and with it energy and area. This
// section is analytic (DeviceParams::cell_bits). The functional fabric models
// precision as a robustness axis only: FaultConfig::cell_bits sets how
// faults and variation reach the stored weight (fault_sweep, the
// variation_study example).
void ablation_cell_precision(int /*episodes*/) {
  bench::print_header("Ablation — cell precision (VGG16, 576x512 crossbars)");
  const auto net = nn::vgg16();
  const auto shapes = uniform(net, {576, 512});

  report::Table table({"Cell bits", "Bit planes", "Energy (nJ)",
                       "Area (um^2)", "Energy vs 1-bit", "Area vs 1-bit"});
  double e1 = 0.0, a1 = 0.0;
  for (int cell_bits : {1, 2, 4, 8}) {
    auto config = bench::paper_accel(/*tile_shared=*/true);
    config.device.cell_bits = cell_bits;
    const auto r = evaluate_shapes(net, shapes, config);
    if (cell_bits == 1) {
      e1 = r.energy.total_nj();
      a1 = r.area.total_um2();
    }
    table.add_row({std::to_string(cell_bits),
                   std::to_string(config.device.bit_planes()),
                   report::format_sci(r.energy.total_nj(), 3),
                   report::format_sci(r.area.total_um2(), 3),
                   report::format_fixed(r.energy.total_nj() / e1, 2) + "x",
                   report::format_fixed(r.area.total_um2() / a1, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nShape: energy and crossbar area scale with 8/cell_bits; "
               "real MLC devices trade this against programming precision "
               "and variation sensitivity (see the variation example).\n";
}

mapping::ResidentModel make_resident(const nn::NetworkSpec& net,
                                     mapping::CrossbarShape shape) {
  mapping::ResidentModel m;
  m.name = net.name;
  m.layers = net.mappable_layers();
  m.shapes.assign(m.layers.size(), shape);
  return m;
}

// Extension: multi-model co-residency. §3.4 notes that tiles freed by the
// tile-shared scheme "become available for other layers in the DNN model or
// other models". This section quantifies it: AlexNet + VGG16 + LeNet
// resident on one chip, under no sharing / per-model sharing / cross-model
// sharing.
void multi_model_residency(int /*episodes*/) {
  bench::print_header(
      "Extension — multi-model residency (AlexNet + VGG16 + LeNet, 72x64)");
  const std::vector<mapping::ResidentModel> models = {
      make_resident(nn::alexnet(), {72, 64}),
      make_resident(nn::vgg16(), {72, 64}),
      make_resident(nn::lenet5(), {72, 64}),
  };

  report::Table table({"Sharing scope", "Occupied tiles", "Released tiles",
                       "System util %", "Chip occupancy %"});
  reram::ChipSpec chip;
  chip.banks = 1;
  chip.bank.tile_rows = 64;  // a small edge-class chip: 4096 tiles
  chip.bank.tile_cols = 64;
  for (const auto& [scope, name] :
       {std::pair{mapping::SharingScope::kNone, "none"},
        std::pair{mapping::SharingScope::kPerModel, "per-model"},
        std::pair{mapping::SharingScope::kCrossModel, "cross-model"}}) {
    const auto result = mapping::allocate_tiles(models, 16, scope);
    const auto placement = reram::place_tiles(result.tiles, chip);
    const std::int64_t released =
        static_cast<std::int64_t>(result.tiles.size()) -
        result.occupied_tiles();
    table.add_row(
        {name, std::to_string(result.occupied_tiles()),
         std::to_string(released),
         report::format_fixed(result.system_utilization() * 100.0, 1),
         report::format_fixed(placement.chip_occupancy * 100.0, 1)});
  }
  table.print(std::cout);

  // Per-model footprint before sharing, for context.
  std::cout << "\nPer-model tiles before sharing:\n";
  const auto base =
      mapping::allocate_tiles(models, 16, mapping::SharingScope::kNone);
  for (std::size_t m = 0; m < models.size(); ++m) {
    std::int64_t tiles = 0;
    for (const auto& layer : base.layers) {
      if (layer.layer_id / mapping::kModelStride ==
          static_cast<std::int64_t>(m)) {
        tiles += layer.tiles_allocated;
      }
    }
    std::cout << "  " << models[m].name << ": " << tiles << " tiles\n";
  }
  std::cout << "\nShape: cross-model sharing releases at least as many tiles "
               "as per-model sharing, freeing chip capacity for additional "
               "resident models.\n";
}

// Ablation: ADC resolution. The paper fixes 10-bit ADCs "to support
// crossbars of all heterogeneous sizes" (§4.1); this sweep quantifies what
// that choice costs. Conversion energy/area come from the SAR component
// model (reram/components.hpp), so energy halves per bit removed — the
// lever behind ADC-sharing literature.
void ablation_adc_resolution(int /*episodes*/) {
  bench::print_header("Ablation — ADC resolution (VGG16, 576x512 crossbars)");
  const auto net = nn::vgg16();
  const auto shapes = uniform(net, {576, 512});

  report::Table table({"ADC bits", "ADC energy (pJ/conv)", "Energy (nJ)",
                       "Area (um^2)", "RUE"});
  for (int bits : {6, 8, 10, 12}) {
    reram::ComponentConfig cfg;
    cfg.adc_resolution_bits = bits;
    auto accel = bench::paper_accel(/*tile_shared=*/true);
    accel.device = reram::derive_device_params(cfg);
    const auto r = evaluate_shapes(net, shapes, accel);
    table.add_row({std::to_string(bits),
                   report::format_fixed(accel.device.adc_energy_pj, 3),
                   report::format_sci(r.energy.total_nj(), 3),
                   report::format_sci(r.area.total_um2(), 3),
                   report::format_sci(r.rue(), 3)});
  }
  table.print(std::cout);
  std::cout << "\nShape: each ADC bit doubles conversion energy; a 10-bit "
               "ADC (the paper's choice, needed to resolve 576-row bitline "
               "sums) costs ~16x the energy of a 6-bit one.\n";
}

// Ablation: ADC column sharing (MNSIM's mux knob). One ADC per bitline —
// the paper's Fig. 5 accounting — maximizes parallelism but dominates area;
// sharing an ADC across N bitlines divides the ADC area by N while
// serializing conversions, stretching latency. Dynamic energy is unchanged
// (every used bitline still converts once per cycle).
void ablation_adc_sharing(int /*episodes*/) {
  bench::print_header("Ablation — ADC column sharing (VGG16, 512x512)");
  const auto net = nn::vgg16();
  const auto shapes = uniform(net, {512, 512});

  report::Table table({"Bitlines/ADC", "Area (um^2)", "ADC area share %",
                       "Latency (ns)", "Energy (nJ)"});
  for (int share : {1, 2, 4, 8, 16}) {
    auto config = bench::paper_accel();
    config.device.adc_share = share;
    const auto r = evaluate_shapes(net, shapes, config);
    table.add_row({std::to_string(share),
                   report::format_sci(r.area.total_um2(), 3),
                   report::format_fixed(
                       100.0 * r.area.adc_um2 / r.area.total_um2(), 1),
                   report::format_sci(r.latency_ns, 3),
                   report::format_sci(r.energy.total_nj(), 3)});
  }
  table.print(std::cout);
  std::cout << "\nShape: area falls steeply until the ADC stops dominating, "
               "latency grows linearly in the sharing factor, energy is "
               "invariant — the classic ISAAC/MNSIM area-latency trade.\n";
}

// Ablation: tile placement policy. Tile ids are allocated in layer order,
// so the slot-filling curve controls how far consecutive layers' tiles sit
// on the bank grid — and with it the interconnect hop count the NoC model
// charges. Also prints the pipelined-batch timeline head from the event
// scheduler for one configuration.
void ablation_placement(int /*episodes*/) {
  bench::print_header("Ablation — placement policy vs interconnect (VGG16)");
  const auto net = nn::vgg16();
  const auto layers = net.mappable_layers();

  report::Table table({"Crossbar", "Policy", "Mean hops", "NoC energy (nJ)"});
  for (const auto& shape :
       {mapping::CrossbarShape{32, 32}, mapping::CrossbarShape{64, 64},
        mapping::CrossbarShape{128, 128}}) {
    const auto allocation =
        mapping::allocate_tiles(layers, uniform(net, shape), 4, false);
    for (const auto& [policy, name] :
         {std::pair{reram::PlacementPolicy::kRowMajor, "row-major"},
          std::pair{reram::PlacementPolicy::kSnake, "snake"},
          std::pair{reram::PlacementPolicy::kHilbert, "hilbert"}}) {
      const auto placement =
          reram::place_tiles(allocation.tiles, reram::ChipSpec{}, policy);
      const auto noc = reram::evaluate_noc(layers, allocation, placement);
      table.add_row({shape.name(), name,
                     report::format_fixed(noc.mean_hops, 2),
                     report::format_fixed(noc.total_energy_nj, 1)});
    }
  }
  table.print(std::cout);

  // Scheduler timeline head for a small pipelined batch.
  std::cout << "\nPipelined batch timeline (VGG16 on 128x128, batch 3, "
               "first 8 tasks):\n";
  const auto p = plan::compile_plan(net.name, layers, uniform(net, {128, 128}),
                                    bench::paper_accel());
  const auto schedule = reram::schedule_batch(p, /*batch=*/3);
  report::Table timeline({"Image", "Layer", "Start (ns)", "Finish (ns)"});
  for (std::size_t t = 0; t < 8 && t < schedule.tasks.size(); ++t) {
    const auto& task = schedule.tasks[t];
    timeline.add_row({std::to_string(task.image), std::to_string(task.layer),
                      report::format_sci(task.start_ns, 3),
                      report::format_sci(task.finish_ns, 3)});
  }
  timeline.print(std::cout);
  std::cout << "Makespan: " << report::format_sci(schedule.makespan_ns, 3)
            << " ns; steady throughput "
            << report::format_fixed(
                   schedule.steady_throughput_inferences_per_s, 1)
            << " inf/s\n";
  std::cout << "\nShape: the Hilbert curve cuts mean hops ~3-4x versus "
               "row-major at every size; snake only helps once layers span "
               "few rows (it can even lose on extreme sprawl, where "
               "alternating row directions separates large layer groups).\n";
}

// Extension: search-objective ablation. The paper optimizes RUE = u/e
// (Eq. 2); area- and latency-aware variants fold the remaining hardware
// costs into the reward. This section runs the same search under each
// objective and shows how the resulting configurations trade the four
// metrics — demonstrating that the framework generalizes beyond the paper's
// single objective (§4.5 "applicability").
void ablation_objective(int episodes) {
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
}

// Component-wise energy breakdown across crossbar sizes — the evidence for
// the modeling premise the whole paper rests on (§2.2.3: ADCs dominate, so
// fewer activated ADCs means less energy). Also emits the per-layer CSV
// (report/serialize) for one configuration.
void energy_breakdown(int /*episodes*/) {
  bench::print_header("Energy breakdown by component (VGG16)");
  const auto net = nn::vgg16();
  const auto config = bench::paper_accel();

  report::Table table({"Crossbar", "ADC %", "DAC %", "Cell %", "Shift-add %",
                       "Buffer %", "Total (nJ)"});
  for (const auto& shape : mapping::square_candidates()) {
    const auto r = evaluate_shapes(net, uniform(net, shape), config);
    const double total = r.energy.total_nj();
    const auto pct = [&](double v) {
      return report::format_fixed(100.0 * v / total, 1);
    };
    table.add_row({shape.name(), pct(r.energy.adc_nj), pct(r.energy.dac_nj),
                   pct(r.energy.cell_nj), pct(r.energy.shift_add_nj),
                   pct(r.energy.buffer_nj), report::format_sci(total, 3)});
  }
  table.print(std::cout);

  // Machine-readable per-layer dump for the paper's default heterogeneous
  // pick (576x512 everywhere, tile-shared).
  reram::AcceleratorConfig shared = config;
  shared.tile_shared = true;
  const auto hetero = evaluate_shapes(net, uniform(net, {576, 512}), shared);
  std::cout << "\nPer-layer CSV (576x512, tile-shared):\n";
  report::write_network_report_csv(std::cout, hetero);
}

struct Section {
  const char* name;
  /// RL search episodes when --episodes is absent; 0 for the sections that
  /// run no search.
  int default_episodes;
  void (*run)(int episodes);
};

/// Every section, in the order EXPERIMENTS.md presents them (and `all`
/// runs them).
constexpr Section kSections[] = {
    {"fig03_motivation", 0, fig03_motivation},
    {"fig04_empty_crossbars", 0, fig04_empty_crossbars},
    {"fig05_size_tradeoff", 0, fig05_size_tradeoff},
    {"fig09_overall", 200, fig09_overall},
    {"fig10_ablation", 120, fig10_ablation},
    {"table3_layer_sizes", 200, table3_layer_sizes},
    {"table4_tiles", 120, table4_tiles},
    {"fig11_sensitivity", 120, fig11_sensitivity},
    {"table5_area_latency", 200, table5_area_latency},
    {"search_convergence", 200, search_convergence},
    {"ablation_noc", 0, ablation_noc},
    {"ablation_pipeline", 0, ablation_pipeline},
    {"ablation_cell_precision", 0, ablation_cell_precision},
    {"multi_model_residency", 0, multi_model_residency},
    {"ablation_adc_resolution", 0, ablation_adc_resolution},
    {"ablation_adc_sharing", 0, ablation_adc_sharing},
    {"ablation_placement", 0, ablation_placement},
    {"ablation_objective", 120, ablation_objective},
    {"energy_breakdown", 0, energy_breakdown},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> sections = {"all"};
  for (const Section& s : kSections) sections.emplace_back(s.name);

  common::ArgParser args = bench::make_args(
      "paper_results",
      "The paper's figures and tables plus the extension ablations");
  args.add_optional_positional(
      "section", "all",
      "one figure/table/ablation section, or all of them in EXPERIMENTS.md "
      "order");
  args.add_option("episodes", "per section",
                  "RL search episodes for every search section (>= 1); "
                  "otherwise each section's own: 200 or 120");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv, {{"episodes", 1}}, &session,
                         {{"section", sections}})) {
    return 2;
  }
  const std::string& section = args.positional("section");
  const bool override_episodes = args.provided("episodes");
  for (const Section& s : kSections) {
    if (section != "all" && section != s.name) continue;
    s.run(override_episodes ? args.count("episodes") : s.default_episodes);
  }
  return 0;
}
