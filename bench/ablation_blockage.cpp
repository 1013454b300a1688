// Ablation A8: robustness to blockage — with probability p a measurement
// slot is shadowed and carries noise only. Blockage corrupts the training
// data every scheme selects from, and specifically poisons the proposed
// scheme's covariance estimates; this sweep shows how gracefully each
// scheme degrades.
#include <cstdio>

#include "fig_common.h"
#include "mac/session.h"
#include "sim/evaluation.h"

int main(int argc, char** argv) {
  const mmw::bench::Cli cli(
      argc, argv, "Ablation A8: measurement blockage sweep.", {});
  mmw::bench::BenchRun run("ablation_blockage", argc, argv);
  using namespace mmw;
  using namespace mmw::sim;

  bench::print_header("Ablation A8", "measurement blockage sweep");

  const Scenario sc = bench::paper_scenario(ChannelKind::kSinglePath, 20);
  const index_t budget = 102;  // 10% search rate
  core::RandomSearch random_search;
  core::ProposedAlignment proposed;
  const std::vector<std::pair<const core::AlignmentStrategy*, const char*>>
      strategies{{&proposed, "Proposed"}, {&random_search, "Random"}};

  std::printf("blockage_p");
  for (const auto& [s, name] : strategies) std::printf("\t%s", name);
  std::printf("\t(mean loss dB at 10%% rate, %zu trials)\n", sc.trials);

  for (const real p : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    std::printf("%.2f", p);
    for (const auto& [strategy, name] : strategies) {
      randgen::Rng root(sc.seed);
      real loss = 0.0;
      for (index_t t = 0; t < sc.trials; ++t) {
        randgen::Rng trial_rng = root.fork();
        const TrialContext ctx = make_trial(sc, trial_rng);
        randgen::Rng run_rng = trial_rng.fork();
        mac::Session session(ctx.link, ctx.tx_codebook, ctx.rx_codebook,
                             sc.gamma, budget, run_rng,
                             sc.fades_per_measurement);
        session.set_blockage_probability(p);
        strategy->run(session);
        loss += loss_after(ctx.oracle, session.records(), budget);
      }
      std::printf("\t%.3f", loss / sc.trials);
    }
    std::printf("\n");
  }
  run.finish();
  return 0;
}
