// Ablation A7: analog phase-shifter resolution.
//
// Real analog front ends implement beam weights with b-bit phase shifters
// (constant modulus, 2^b phase levels). This sweeps b and reports both the
// pure beamforming degradation (gain of the quantized beam toward its own
// direction) and the end-to-end alignment loss of the proposed scheme.
#include <cstdio>
#include <string>

#include "antenna/steering.h"
#include "fig_common.h"
#include "mac/session.h"
#include "sim/evaluation.h"

int main(int argc, char** argv) {
  const mmw::bench::Cli cli(
      argc, argv,
      "Ablation A7: phase-shifter resolution sweep.\n"
      "Runs serially; --threads is ignored.",
      {});
  mmw::bench::BenchRun run("ablation_phase_quantization", cli);
  using namespace mmw;
  using antenna::ArrayGeometry;
  using antenna::Codebook;

  bench::print_header("Ablation A7", "phase-shifter resolution sweep");

  const auto tx = ArrayGeometry::upa(4, 4);
  const auto rx = ArrayGeometry::upa(8, 8);
  const channel::AngularSector sector;
  const auto tx_ideal = Codebook::angular_grid(
      tx, 4, 4, sector.az_min, sector.az_max, sector.el_min, sector.el_max);
  const auto rx_ideal = Codebook::angular_grid(
      rx, 8, 8, sector.az_min, sector.az_max, sector.el_min, sector.el_max);
  const index_t budget = 102;  // 10% of T
  const int trials = 20;

  std::printf(
      "bits\tbeam_gain_loss_dB\tproposed_loss_dB\trandom_loss_dB (10%% "
      "rate, %d trials)\n",
      trials);
  for (const index_t bits :
       {index_t{1}, index_t{2}, index_t{3}, index_t{4}, index_t{0}}) {
    const bool ideal = bits == 0;
    const Codebook tx_cb =
        ideal ? tx_ideal : tx_ideal.with_quantized_phases(bits);
    const Codebook rx_cb =
        ideal ? rx_ideal : rx_ideal.with_quantized_phases(bits);

    // Pure beamforming view: mean gain drop of the quantized boresight-ish
    // codeword toward a matched direction.
    real gain_loss = 0.0;
    {
      randgen::Rng rng(3);
      const int probes = 100;
      for (int i = 0; i < probes; ++i) {
        const antenna::Direction d{rng.uniform(sector.az_min, sector.az_max),
                                   rng.uniform(sector.el_min, sector.el_max)};
        const index_t best_q =
            rx_cb.best_match(antenna::steering_vector(rx, d));
        const index_t best_i =
            rx_ideal.best_match(antenna::steering_vector(rx, d));
        const real gq = antenna::beam_gain(rx, rx_cb.codeword(best_q), d);
        const real gi = antenna::beam_gain(rx, rx_ideal.codeword(best_i), d);
        gain_loss += 10.0 * std::log10(gi / std::max(gq, 1e-12));
      }
      gain_loss /= probes;
    }

    // End-to-end view.
    randgen::Rng rng(17);
    real prop_loss = 0.0, rand_loss = 0.0;
    for (int t = 0; t < trials; ++t) {
      const auto link = channel::make_single_path_link(tx, rx, rng, sector);
      const core::PairGainOracle oracle(link, tx_cb, rx_cb);
      {
        randgen::Rng run = rng.fork();
        mac::Session s(link, tx_cb, rx_cb, 1.0, budget, run, 8);
        core::ProposedAlignment().run(s);
        prop_loss += sim::loss_after(oracle, s.records(), budget);
      }
      {
        randgen::Rng run = rng.fork();
        mac::Session s(link, tx_cb, rx_cb, 1.0, budget, run, 8);
        core::RandomSearch().run(s);
        rand_loss += sim::loss_after(oracle, s.records(), budget);
      }
    }
    std::printf("%s\t%.3f\t%.3f\t%.3f\n", ideal ? "ideal" :
                std::to_string(bits).c_str(), gain_loss, prop_loss / trials,
                rand_loss / trials);
  }
  std::printf(
      "\nnote: the oracle grades against the QUANTIZED codebook's own "
      "optimum, so the\nend-to-end loss isolates the search behaviour; the "
      "beam-gain column shows the\nhardware penalty itself (2-3 bits is "
      "within a fraction of a dB of ideal).\n");
  run.finish();
  return 0;
}
