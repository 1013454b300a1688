// Extension E1: all implemented alignment protocols side by side at their
// natural operating points, including the IEEE 802.15.3c-style two-stage
// sweep (sector sweep + beam refinement) and the hierarchical search —
// reporting measurements, achieved loss, and MAC air-time.
#include <cstdio>

#include "core/shards.h"
#include "core/standard_sweep.h"
#include "fig_common.h"
#include "mac/timing.h"
#include "sim/evaluation.h"

int main(int argc, char** argv) {
  const mmw::bench::Cli cli(
      argc, argv,
      "Extension E1: protocol comparison incl. 802.15.3c-style sweep.", {});
  mmw::bench::BenchRun run("ext_strategies_compare", cli);
  using namespace mmw;
  using namespace mmw::sim;

  bench::print_header("Extension E1",
                      "protocol comparison incl. 802.15.3c-style sweep",
                      cli.threads());

  const mac::ProtocolTiming timing;
  const index_t budget_10pct = 102;

  for (const auto kind :
       {ChannelKind::kSinglePath, ChannelKind::kNycMultipath}) {
    Scenario sc = bench::paper_scenario(kind, 20);
    std::printf("%s channel (20 trials)\n",
                kind == ChannelKind::kSinglePath ? "single-path"
                                                 : "NYC multipath");
    std::printf("protocol\tmeasurements\tloss_dB\tair_time_us\n");

    // Codebook-session protocols at a 10% search rate.
    core::RandomSearch random_search;
    core::ScanSearch scan_search;
    core::ProposedAlignment proposed;
    core::HierarchicalSearch hierarchical;
    core::LocalSearch local_search;
    const std::vector<const core::AlignmentStrategy*> strategies{
        &random_search, &scan_search, &proposed, &hierarchical,
        &local_search};

    // One slot per (trial, protocol) — the strategies' losses, then the
    // sweep's — reduced in trial order, so any thread count prints the same.
    const index_t n = strategies.size();
    std::vector<real> loss(sc.trials * (n + 1));
    index_t sweep_meas = 0;
    const auto tx = antenna::ArrayGeometry::upa(4, 4);
    const auto rx = antenna::ArrayGeometry::upa(8, 8);
    const auto pool = core::make_pool(cli.threads(), sc.trials);
    core::run_shards(
        pool.get(), sc.trials, core::OnFailure::kPropagate, [&](index_t t) {
          randgen::Rng trial_rng = randgen::Rng::stream(sc.seed, t);
          const TrialContext ctx = make_trial(sc, trial_rng);
          for (index_t i = 0; i < n; ++i) {
            randgen::Rng run_rng = trial_rng.fork();
            mac::Session session(ctx.link, ctx.tx_codebook, ctx.rx_codebook,
                                 sc.gamma, budget_10pct, run_rng,
                                 sc.fades_per_measurement);
            strategies[i]->run(session);
            loss[t * (n + 1) + i] =
                loss_after(ctx.oracle, session.records(), budget_10pct);
          }
          // The 802.15.3c-style two-stage sweep (fixed protocol cost).
          randgen::Rng run_rng = trial_rng.fork();
          core::StandardSweepConfig cfg;
          cfg.gamma = sc.gamma;
          cfg.fades_per_measurement = sc.fades_per_measurement;
          const auto res = core::run_standard_sweep(
              ctx.link, tx, rx, ctx.tx_codebook, ctx.rx_codebook, cfg,
              run_rng);
          loss[t * (n + 1) + n] = ctx.oracle.loss_db(res.tx_beam, res.rx_beam);
          if (t == 0) sweep_meas = res.total_measurements();
        });
    std::map<std::string, real> loss_acc;
    real sweep_loss = 0.0;
    for (index_t t = 0; t < sc.trials; ++t) {
      for (index_t i = 0; i < n; ++i)
        loss_acc[std::string(strategies[i]->name())] += loss[t * (n + 1) + i];
      sweep_loss += loss[t * (n + 1) + n];
    }
    for (const auto& [name, acc] : loss_acc) {
      // One TX-slot per J=6 measurements for Proposed; the sweeps batch
      // feedback once per TX beam row (16 slots at 10% budget either way).
      const index_t slots = budget_10pct / 6;
      std::printf("%s\t%zu\t%.3f\t%.0f\n", name.c_str(), budget_10pct,
                  acc / sc.trials,
                  timing.alignment_latency_us(budget_10pct, slots));
    }

    std::printf("802.15.3c-sweep\t%zu\t%.3f\t%.0f\n\n", sweep_meas,
                sweep_loss / sc.trials,
                timing.alignment_latency_us(sweep_meas, 16 + 4));
  }
  run.finish();
  return 0;
}
