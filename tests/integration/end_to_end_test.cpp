// End-to-end integration tests: the headline claims of the reproduction,
// exercised through the same pipeline the benches use (scenario → link →
// session → strategy → oracle), at reduced scale so they stay fast.
#include <gtest/gtest.h>

#include <cmath>

#include "core/standard_sweep.h"
#include "mac/timing.h"
#include "sim/experiments.h"

namespace mmw {
namespace {

using namespace sim;

Scenario small_paper_scenario(ChannelKind kind, index_t trials = 10) {
  Scenario sc;
  sc.channel = kind;
  sc.trials = trials;
  sc.seed = 99;
  return sc;
}

TEST(EndToEndTest, ProposedBeatsRandomAndScanSinglePath) {
  // The paper's Fig. 5 headline at a mid search rate.
  const Scenario sc = small_paper_scenario(ChannelKind::kSinglePath, 12);
  core::RandomSearch rnd;
  core::ScanSearch scan;
  core::ProposedAlignment prop;
  const auto res =
      run_search_effectiveness(sc, {&rnd, &scan, &prop}, {0.15});
  const real proposed = res.loss_db.at("Proposed")[0].mean;
  const real random = res.loss_db.at("Random")[0].mean;
  const real scan_loss = res.loss_db.at("Scan")[0].mean;
  EXPECT_LT(proposed, random);
  EXPECT_LT(random, scan_loss);
}

TEST(EndToEndTest, ProposedBeatsRandomMultipath) {
  const Scenario sc = small_paper_scenario(ChannelKind::kNycMultipath, 12);
  core::RandomSearch rnd;
  core::ProposedAlignment prop;
  const auto res = run_search_effectiveness(sc, {&rnd, &prop}, {0.10});
  EXPECT_LT(res.loss_db.at("Proposed")[0].mean,
            res.loss_db.at("Random")[0].mean);
}

TEST(EndToEndTest, LossDecreasesWithSearchRateForProposed) {
  const Scenario sc = small_paper_scenario(ChannelKind::kSinglePath, 10);
  core::ProposedAlignment prop;
  const auto res =
      run_search_effectiveness(sc, {&prop}, {0.05, 0.15, 0.35});
  const auto& row = res.loss_db.at("Proposed");
  EXPECT_GE(row[0].mean, row[1].mean - 0.5);
  EXPECT_GE(row[1].mean, row[2].mean - 0.5);
  EXPECT_LT(row[2].mean, row[0].mean);  // strict end-to-end improvement
}

TEST(EndToEndTest, PingPongBeatsRandomAndIsCompetitiveWithProposed) {
  const Scenario sc = small_paper_scenario(ChannelKind::kSinglePath, 12);
  core::RandomSearch rnd;
  core::ProposedAlignment prop;
  core::PingPongAlignment pp;
  const auto res =
      run_search_effectiveness(sc, {&rnd, &prop, &pp}, {0.15});
  const real pingpong = res.loss_db.at("PingPong")[0].mean;
  EXPECT_LT(pingpong, res.loss_db.at("Random")[0].mean);
  // Bidirectional learning should never be much worse than one-sided.
  EXPECT_LT(pingpong, res.loss_db.at("Proposed")[0].mean + 1.0);
}

TEST(EndToEndTest, CostEfficiencyOrderingAtTightTarget) {
  // The paper's Fig. 7 headline: Proposed needs the smallest search rate.
  const Scenario sc = small_paper_scenario(ChannelKind::kSinglePath, 10);
  core::RandomSearch rnd;
  core::ProposedAlignment prop;
  const auto res = run_cost_efficiency(sc, {&rnd, &prop}, {2.0});
  EXPECT_LT(res.required_rate.at("Proposed")[0].mean,
            res.required_rate.at("Random")[0].mean);
}

TEST(EndToEndTest, HundredPercentRateIsNearOptimalForEveryScheme) {
  // "At 100% all three schemes reduce to exhaustive scan" — with fade
  // averaging the claimed pair is near-optimal for all of them.
  // 24 trials: at 6 the mean over seeds is ≈0.17 dB, but one seed in 25–50
  // lands above the 0.6 dB bound by Monte-Carlo chance alone.
  Scenario sc = small_paper_scenario(ChannelKind::kSinglePath, 24);
  sc.tx_grid_x = sc.tx_grid_y = 2;  // shrink T so the test stays fast
  sc.rx_grid_x = sc.rx_grid_y = 4;
  sc.fades_per_measurement = 32;
  core::RandomSearch rnd;
  core::ScanSearch scan;
  core::ProposedAlignment prop;
  const auto res =
      run_search_effectiveness(sc, {&rnd, &scan, &prop}, {1.0});
  for (const auto& [name, row] : res.loss_db)
    EXPECT_LT(row[0].mean, 0.6) << name;
}

TEST(EndToEndTest, StandardSweepPipelineProducesComparableAlignment) {
  // The 802.15.3c-style protocol, graded by the same oracle.
  randgen::Rng rng(5);
  const auto tx = antenna::ArrayGeometry::upa(4, 4);
  const auto rx = antenna::ArrayGeometry::upa(8, 8);
  const channel::AngularSector sector;
  const auto tx_cb = antenna::Codebook::angular_grid(
      tx, 4, 4, sector.az_min, sector.az_max, sector.el_min, sector.el_max);
  const auto rx_cb = antenna::Codebook::angular_grid(
      rx, 8, 8, sector.az_min, sector.az_max, sector.el_min, sector.el_max);
  real loss = 0.0;
  const int trials = 6;
  for (int t = 0; t < trials; ++t) {
    const auto link = channel::make_single_path_link(tx, rx, rng, sector);
    const core::PairGainOracle oracle(link, tx_cb, rx_cb);
    core::StandardSweepConfig cfg;
    cfg.fades_per_measurement = 16;
    const auto res =
        core::run_standard_sweep(link, tx, rx, tx_cb, rx_cb, cfg, rng);
    EXPECT_EQ(res.total_measurements(), 80u);
    loss += oracle.loss_db(res.tx_beam, res.rx_beam);
  }
  EXPECT_LT(loss / trials, 8.0);
}

TEST(EndToEndTest, TimingModelFavorsCheaperAlignment) {
  // Proposed at 10% yields more net throughput than exhaustive at 100%
  // when frames are short — the paper's capacity argument.
  const mac::ProtocolTiming timing;
  const real frame_us = 5000.0;
  const real snr = 100.0;
  const real cheap =
      timing.net_spectral_efficiency(102, 17, frame_us, snr);
  const real full =
      timing.net_spectral_efficiency(1024, 16, frame_us, snr);
  EXPECT_GT(cheap, full);
}

TEST(EndToEndTest, ReproducibleAcrossRuns) {
  const Scenario sc = small_paper_scenario(ChannelKind::kNycMultipath, 4);
  core::ProposedAlignment prop;
  const auto a = run_search_effectiveness(sc, {&prop}, {0.1});
  const auto b = run_search_effectiveness(sc, {&prop}, {0.1});
  EXPECT_DOUBLE_EQ(a.loss_db.at("Proposed")[0].mean,
                   b.loss_db.at("Proposed")[0].mean);
}

TEST(EndToEndTest, BlockageDegradesButDoesNotBreakProposed) {
  randgen::Rng rng(11);
  const auto tx = antenna::ArrayGeometry::upa(4, 4);
  const auto rx = antenna::ArrayGeometry::upa(8, 8);
  const channel::AngularSector sector;
  const auto tx_cb = antenna::Codebook::angular_grid(
      tx, 4, 4, sector.az_min, sector.az_max, sector.el_min, sector.el_max);
  const auto rx_cb = antenna::Codebook::angular_grid(
      rx, 8, 8, sector.az_min, sector.az_max, sector.el_min, sector.el_max);
  real clean = 0.0, blocked = 0.0;
  // 32 trials: at 8 the clean mean (≈3.1 dB over seeds) exceeds its 8 dB
  // bound for a few seeds in a hundred by Monte-Carlo chance alone.
  const int trials = 32;
  for (int t = 0; t < trials; ++t) {
    const auto link = channel::make_single_path_link(tx, rx, rng, sector);
    const core::PairGainOracle oracle(link, tx_cb, rx_cb);
    for (const real p : {0.0, 0.3}) {
      randgen::Rng run = rng.fork();
      mac::Session s(link, tx_cb, rx_cb, 1.0, 154, run, 8);
      s.set_blockage_probability(p);
      core::ProposedAlignment().run(s);
      const auto best = s.best_measured();
      (p == 0.0 ? clean : blocked) +=
          oracle.loss_db(best->tx_beam, best->rx_beam);
    }
  }
  EXPECT_LT(clean / trials, 8.0);
  EXPECT_LT(blocked / trials, 15.0);  // degraded but functional
}

}  // namespace
}  // namespace mmw
