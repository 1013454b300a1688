// Reproduces paper Fig. 6: SNR Loss (dB) vs Search Rate for the NYC-derived
// multipath channel (Akdeniz cluster model); series = Random, Scan, Proposed.
//
// Expected shape: same ordering as Fig. 5 (Proposed ≤ Random < Scan) with
// smaller absolute losses — the multipath channel has several good beam
// clusters, so every scheme finds a decent pair sooner.
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace mmw;
  using namespace mmw::sim;

  const bench::Cli cli(
      argc, argv, "Figure 6: search effectiveness, NYC multipath channel.", {});
  bench::BenchRun run("fig6_search_effectiveness_multipath", cli);
  Scenario sc = bench::paper_scenario(ChannelKind::kNycMultipath);
  sc.threads = cli.threads();
  run.add_scenario(sc);
  bench::print_header("Figure 6",
                      "search effectiveness, NYC multipath channel",
                      sc.threads);

  core::RandomSearch random_search;
  core::ScanSearch scan_search;
  core::ProposedAlignment proposed;
  const std::vector<const core::AlignmentStrategy*> strategies{
      &random_search, &scan_search, &proposed};

  const auto result = run_search_effectiveness(sc, strategies,
                                               bench::paper_search_rates());
  std::printf("SNR Loss (dB) vs Search Rate\n%s\n",
              render_table("search_rate", result.search_rates,
                           result.loss_db)
                  .c_str());
  const std::string csv =
      render_csv("search_rate", result.search_rates, result.loss_db);
  std::printf("csv\n%s", csv.c_str());
  bench::write_artifact("fig6_search_effectiveness_multipath.csv", csv);
  run.finish();
  return 0;
}
