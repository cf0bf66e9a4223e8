// Reproduces Fig. 11: sensitivity of AutoHet's RUE on VGG16 to
//   (a) the ratio of square to rectangle crossbar candidates (2S3R/3S2R/4S1R),
//   (b) the number of crossbar candidates (2/4/8),
//   (c) the number of PEs per tile (8/16/32),
// each against the best homogeneous accelerator (Best-Homo).
//
// Usage: fig11_sensitivity [episodes]   (default 120 per search)
#include "bench_common.hpp"

using namespace autohet;

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  common::ArgParser args = bench::make_args(
      "fig11_sensitivity", "Fig. 11: sensitivity analysis (VGG16)");
  args.add_optional_positional("episodes", "120",
                               "RL search episodes per configuration");
  std::optional<obs::ObsSession> session;
  if (!bench::parse_args(args, argc, argv, {{"episodes", 1}}, &session)) {
    return 2;
  }
  const int episodes = args.count("episodes");
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
  return 0;
}
