// Reproduces paper Fig. 7: Required Search Rate vs Target Loss for the
// single-path channel — each scheme searches until its claimed pair is
// within the target loss of the optimum; the rate of pairs it had to
// measure is the cost.
//
// Expected shape: required rate grows as the target tightens; Proposed
// needs the smallest rate everywhere, saving up to ~25% of all beam pairs
// against the baselines at tight targets.
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  using namespace mmw;
  using namespace mmw::sim;

  const bench::Cli cli(
      argc, argv, "Figure 7: cost efficiency, single-path channel.", {});
  bench::BenchRun run("fig7_cost_efficiency_singlepath", cli);
  Scenario sc = bench::paper_scenario(ChannelKind::kSinglePath);
  sc.threads = cli.threads();
  run.add_scenario(sc);
  bench::print_header("Figure 7", "cost efficiency, single-path channel",
                      sc.threads);

  core::RandomSearch random_search;
  core::ScanSearch scan_search;
  core::ProposedAlignment proposed;
  const std::vector<const core::AlignmentStrategy*> strategies{
      &random_search, &scan_search, &proposed};

  const auto result =
      run_cost_efficiency(sc, strategies, bench::paper_target_losses());
  std::printf("Required Search Rate vs Target Loss (dB)\n%s\n",
              render_table("target_loss_db", result.target_loss_db,
                           result.required_rate)
                  .c_str());
  const std::string csv = render_csv("target_loss_db",
                                     result.target_loss_db,
                                     result.required_rate);
  std::printf("csv\n%s", csv.c_str());
  bench::write_artifact("fig7_cost_efficiency_singlepath.csv", csv);
  run.finish();
  return 0;
}
