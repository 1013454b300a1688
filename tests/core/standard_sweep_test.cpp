#include "core/standard_sweep.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "antenna/steering.h"
#include "channel/models.h"
#include "core/oracle.h"
#include "support/energy_law.h"

namespace mmw::core {
namespace {

using antenna::ArrayGeometry;
using antenna::Codebook;
using randgen::Rng;

struct Fixture {
  ArrayGeometry tx = ArrayGeometry::upa(4, 4);
  ArrayGeometry rx = ArrayGeometry::upa(8, 8);
  channel::AngularSector sector;
  Codebook tx_cb;
  Codebook rx_cb;

  Fixture()
      : tx_cb(Codebook::angular_grid(tx, 4, 4, sector.az_min, sector.az_max,
                                     sector.el_min, sector.el_max)),
        rx_cb(Codebook::angular_grid(rx, 8, 8, sector.az_min, sector.az_max,
                                     sector.el_min, sector.el_max)) {}
};

TEST(SubarrayRestrictionTest, KeepsOnlyActiveElements) {
  const auto geo = ArrayGeometry::upa(4, 4);
  const auto w = antenna::steering_vector(geo, {0.3, 0.1});
  const auto wide = antenna::subarray_restriction(geo, w, 2, 2);
  EXPECT_NEAR(wide.norm(), 1.0, 1e-12);
  for (index_t ix = 0; ix < 4; ++ix)
    for (index_t iy = 0; iy < 4; ++iy) {
      const cx v = wide[ix * 4 + iy];
      if (ix < 2 && iy < 2)
        EXPECT_GT(std::abs(v), 0.0);
      else
        EXPECT_EQ(v, (cx{0, 0}));
    }
}

TEST(SubarrayRestrictionTest, WideBeamHasWiderMainLobe) {
  const auto geo = ArrayGeometry::upa(8, 8);
  const antenna::Direction boresight{0.0, 0.0};
  const auto narrow = antenna::steering_vector(geo, boresight);
  const auto wide = antenna::subarray_restriction(geo, narrow, 2, 2);
  // Relative gain at a 15° offset: the wide beam keeps much more of it.
  const antenna::Direction off{15.0 * M_PI / 180.0, 0.0};
  const real narrow_rel = antenna::beam_gain(geo, narrow, off) /
                          antenna::beam_gain(geo, narrow, boresight);
  const real wide_rel = antenna::beam_gain(geo, wide, off) /
                        antenna::beam_gain(geo, wide, boresight);
  EXPECT_GT(wide_rel, 4.0 * narrow_rel);
}

TEST(SubarrayRestrictionTest, Validation) {
  const auto geo = ArrayGeometry::upa(4, 4);
  const auto w = antenna::steering_vector(geo, {0.0, 0.0});
  EXPECT_THROW(antenna::subarray_restriction(geo, w, 0, 2),
               precondition_error);
  EXPECT_THROW(antenna::subarray_restriction(geo, w, 5, 2),
               precondition_error);
  EXPECT_THROW(
      antenna::subarray_restriction(geo, linalg::Vector(8), 2, 2),
      precondition_error);
}

TEST(StandardSweepTest, MeasurementCountMatchesProtocol) {
  Fixture f;
  Rng rng(5);
  const auto link = channel::make_single_path_link(f.tx, f.rx, rng, f.sector);
  StandardSweepConfig cfg;
  const auto res = run_standard_sweep(link, f.tx, f.rx, f.tx_cb, f.rx_cb,
                                      cfg, rng);
  // Stage 1: (2·2)·(2·2) = 16 sector pairs. Stage 2: TX block 2×2 = 4 fine
  // beams, RX block 4×4 = 16 fine beams → 64 pairs.
  EXPECT_EQ(res.sector_measurements, 16u);
  EXPECT_EQ(res.beam_measurements, 64u);
  EXPECT_EQ(res.total_measurements(), 80u);
}

TEST(StandardSweepTest, FindsGoodPairOnSinglePath) {
  Fixture f;
  Rng rng(6);
  real loss_acc = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    const auto link =
        channel::make_single_path_link(f.tx, f.rx, rng, f.sector);
    const PairGainOracle oracle(link, f.tx_cb, f.rx_cb);
    StandardSweepConfig cfg;
    cfg.fades_per_measurement = 16;
    const auto res = run_standard_sweep(link, f.tx, f.rx, f.tx_cb, f.rx_cb,
                                        cfg, rng);
    loss_acc += oracle.loss_db(res.tx_beam, res.rx_beam);
  }
  // 80 of 1024 measurements (≈8%) should land within a few dB on average;
  // sector misdetection occasionally costs more, hence the loose bound.
  EXPECT_LT(loss_acc / trials, 6.0);
}

TEST(StandardSweepTest, SelectedPairLiesInWinningSector) {
  Fixture f;
  Rng rng(7);
  const auto link = channel::make_single_path_link(f.tx, f.rx, rng, f.sector);
  StandardSweepConfig cfg;
  const auto res = run_standard_sweep(link, f.tx, f.rx, f.tx_cb, f.rx_cb,
                                      cfg, rng);
  EXPECT_LT(res.tx_beam, f.tx_cb.size());
  EXPECT_LT(res.rx_beam, f.rx_cb.size());
  EXPECT_GE(res.best_energy, 0.0);
}

// The sweep measures through the probe energy law. With one-beam codebooks
// and one sector per end, stage 2 measures exactly the fine pair (0, 0), so
// best_energy is one draw of Gamma(F, λ/F), λ = mean_pair_gain + 1/γ: its
// moments must match the law and its distribution the per-fade reference.
TEST(StandardSweepTest, BestEnergyFollowsTheEnergyLaw) {
  const auto tx = ArrayGeometry::upa(4, 4);
  const auto rx = ArrayGeometry::upa(8, 8);
  Rng link_rng(9);
  const auto link = channel::make_nyc_multipath_link(tx, rx, link_rng);
  // One codeword per end, steered at the first path.
  const channel::Path& path = link.paths().front();
  const Codebook tx_cb = Codebook::angular_grid(
      tx, 1, 1, path.aod.azimuth, path.aod.azimuth, path.aod.elevation,
      path.aod.elevation);
  const Codebook rx_cb = Codebook::angular_grid(
      rx, 1, 1, path.aoa.azimuth, path.aoa.azimuth, path.aoa.elevation,
      path.aoa.elevation);
  const real gain = link.mean_pair_gain(tx_cb.codeword(0), rx_cb.codeword(0));
  ASSERT_GT(gain, 0.0);
  StandardSweepConfig cfg;
  cfg.tx_sectors_x = cfg.tx_sectors_y = 1;
  cfg.rx_sectors_x = cfg.rx_sectors_y = 1;
  cfg.gamma = 2.0 / gain;  // noise floor at half the pair's path gain
  cfg.fades_per_measurement = 6;
  const real noise = 1.0 / cfg.gamma;
  const real lambda = gain + noise;

  constexpr index_t kDraws = 20000;
  std::vector<real> law(kDraws), reference(kDraws);
  for (index_t i = 0; i < kDraws; ++i) {
    Rng a = Rng::stream(31, i);
    const auto res =
        run_standard_sweep(link, tx, rx, tx_cb, rx_cb, cfg, a);
    ASSERT_EQ(res.total_measurements(), 2u);
    law[i] = res.best_energy;
    Rng b = Rng::stream(13, i);
    reference[i] = test::per_fade_energy(link, tx_cb.codeword(0),
                                         rx_cb.codeword(0), noise, false,
                                         cfg.fades_per_measurement, b);
  }
  const test::LawMoments want = test::energy_law_moments(
      lambda, noise, 0.0, cfg.fades_per_measurement, kDraws);
  const test::Moments got = test::moments(law);
  EXPECT_NEAR(got.mean, want.mean, 5.0 * want.mean_se);
  EXPECT_NEAR(got.variance, want.variance, 5.0 * want.variance_se);
  EXPECT_TRUE(test::ks_same_law(law, reference, 0.001))
      << "D = " << test::ks_two_sample(law, reference);
}

TEST(StandardSweepTest, ConfigValidation) {
  Fixture f;
  Rng rng(8);
  const auto link = channel::make_single_path_link(f.tx, f.rx, rng, f.sector);
  StandardSweepConfig bad;
  bad.tx_sectors_x = 3;  // 4 % 3 != 0
  EXPECT_THROW(
      run_standard_sweep(link, f.tx, f.rx, f.tx_cb, f.rx_cb, bad, rng),
      precondition_error);
  StandardSweepConfig bad2;
  bad2.gamma = 0.0;
  EXPECT_THROW(
      run_standard_sweep(link, f.tx, f.rx, f.tx_cb, f.rx_cb, bad2, rng),
      precondition_error);
}

TEST(StandardSweepTest, FinerSectorsSpendMoreOnStageOne) {
  Fixture f;
  Rng rng(9);
  const auto link = channel::make_single_path_link(f.tx, f.rx, rng, f.sector);
  StandardSweepConfig fine;
  fine.rx_sectors_x = 4;
  fine.rx_sectors_y = 4;
  const auto res = run_standard_sweep(link, f.tx, f.rx, f.tx_cb, f.rx_cb,
                                      fine, rng);
  EXPECT_EQ(res.sector_measurements, 4u * 16u);
  EXPECT_EQ(res.beam_measurements, 4u * 4u);
}

}  // namespace
}  // namespace mmw::core
