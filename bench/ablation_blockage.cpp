// Ablation A8: robustness to blockage — with probability p a measurement
// slot is shadowed and carries noise only. Blockage corrupts the training
// data every scheme selects from, and specifically poisons the proposed
// scheme's covariance estimates; this sweep shows how gracefully each
// scheme degrades.
#include <cstdio>

#include "core/shards.h"
#include "fig_common.h"
#include "mac/session.h"
#include "sim/evaluation.h"

int main(int argc, char** argv) {
  const mmw::bench::Cli cli(
      argc, argv, "Ablation A8: measurement blockage sweep.", {});
  mmw::bench::BenchRun run("ablation_blockage", cli);
  using namespace mmw;
  using namespace mmw::sim;

  const Scenario sc = bench::paper_scenario(ChannelKind::kSinglePath, 20);
  bench::print_header("Ablation A8", "measurement blockage sweep",
                      cli.threads());
  const auto pool = core::make_pool(cli.threads(), sc.trials);
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
      // Trial t's link comes from stream t at every p and for every
      // scheme; per-trial slots summed in trial order keep the output the
      // same at any thread count.
      std::vector<real> losses(sc.trials);
      core::run_shards(
          pool.get(), sc.trials, core::OnFailure::kPropagate, [&](index_t t) {
            randgen::Rng trial_rng = randgen::Rng::stream(sc.seed, t);
            const TrialContext ctx = make_trial(sc, trial_rng);
            randgen::Rng run_rng = trial_rng.fork();
            mac::Session session(ctx.link, ctx.tx_codebook, ctx.rx_codebook,
                                 sc.gamma, budget, run_rng,
                                 sc.fades_per_measurement);
            session.set_blockage_probability(p);
            strategy->run(session);
            losses[t] = loss_after(ctx.oracle, session.records(), budget);
          });
      real loss = 0.0;
      for (const real l : losses) loss += l;
      std::printf("\t%.3f", loss / sc.trials);
    }
    std::printf("\n");
  }
  run.finish();
  return 0;
}
