// Extension E1: all implemented alignment protocols side by side at their
// natural operating points, including the IEEE 802.15.3c-style two-stage
// sweep (sector sweep + beam refinement) and the hierarchical search —
// reporting measurements, achieved loss, and MAC air-time.
#include <cstdio>

#include "core/standard_sweep.h"
#include "fig_common.h"
#include "mac/timing.h"
#include "sim/evaluation.h"

int main(int argc, char** argv) {
  const mmw::bench::Cli cli(
      argc, argv,
      "Extension E1: protocol comparison incl. 802.15.3c-style sweep.", {});
  mmw::bench::BenchRun run("ext_strategies_compare", argc, argv);
  using namespace mmw;
  using namespace mmw::sim;

  bench::print_header("Extension E1",
                      "protocol comparison incl. 802.15.3c-style sweep");

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

    randgen::Rng root(sc.seed);
    std::map<std::string, real> loss_acc;
    for (index_t t = 0; t < sc.trials; ++t) {
      randgen::Rng trial_rng = root.fork();
      const TrialContext ctx = make_trial(sc, trial_rng);
      for (const auto* s : strategies) {
        randgen::Rng run_rng = trial_rng.fork();
        mac::Session session(ctx.link, ctx.tx_codebook, ctx.rx_codebook,
                             sc.gamma, budget_10pct, run_rng,
                             sc.fades_per_measurement);
        s->run(session);
        loss_acc[std::string(s->name())] +=
            loss_after(ctx.oracle, session.records(), budget_10pct);
      }
    }
    for (const auto& [name, acc] : loss_acc) {
      // One TX-slot per J=6 measurements for Proposed; the sweeps batch
      // feedback once per TX beam row (16 slots at 10% budget either way).
      const index_t slots = budget_10pct / 6;
      std::printf("%s\t%zu\t%.3f\t%.0f\n", name.c_str(), budget_10pct,
                  acc / sc.trials,
                  timing.alignment_latency_us(budget_10pct, slots));
    }

    // The 802.15.3c-style two-stage sweep (fixed protocol cost).
    randgen::Rng root2(sc.seed);
    real sweep_loss = 0.0;
    index_t sweep_meas = 0;
    const auto tx = antenna::ArrayGeometry::upa(4, 4);
    const auto rx = antenna::ArrayGeometry::upa(8, 8);
    for (index_t t = 0; t < sc.trials; ++t) {
      randgen::Rng trial_rng = root2.fork();
      const TrialContext ctx = make_trial(sc, trial_rng);
      randgen::Rng run_rng = trial_rng.fork();
      core::StandardSweepConfig cfg;
      cfg.gamma = sc.gamma;
      cfg.fades_per_measurement = sc.fades_per_measurement;
      const auto res = core::run_standard_sweep(
          ctx.link, tx, rx, ctx.tx_codebook, ctx.rx_codebook, cfg, run_rng);
      sweep_loss += ctx.oracle.loss_db(res.tx_beam, res.rx_beam);
      sweep_meas = res.total_measurements();
    }
    std::printf("802.15.3c-sweep\t%zu\t%.3f\t%.0f\n\n", sweep_meas,
                sweep_loss / sc.trials,
                timing.alignment_latency_us(sweep_meas, 16 + 4));
  }
  run.finish();
  return 0;
}
