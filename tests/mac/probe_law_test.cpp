// The probe energy law: mac::probe_energy samples the slot-averaged
// matched-filter energy from Gamma(F, λ/F) instead of synthesizing fades.
// Each case checks its fixed-seed mean and variance against the exact law
// and its distribution against the per-fade reference (two-sample KS),
// over NYC multipath links with blockage and co-channel interference.
#include "mac/probe.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "channel/models.h"
#include "support/energy_law.h"

namespace mmw::mac {
namespace {

using antenna::ArrayGeometry;
using antenna::Codebook;
using randgen::Rng;

constexpr index_t kDraws = 20000;
constexpr real kAlpha = 0.001;
constexpr real kSigmas = 5.0;

struct Case {
  std::string name;
  index_t rx_side = 8;  ///< RX is a rx_side × rx_side UPA
  index_t fades = 8;
  real blockage = 0.0;
  bool interfered = false;
};

void check_case(const Case& c) {
  SCOPED_TRACE(c.name);
  const auto tx = ArrayGeometry::upa(4, 4);
  const auto rx = ArrayGeometry::upa(c.rx_side, c.rx_side);
  Rng link_rng(2016);
  const channel::Link link =
      channel::make_nyc_multipath_link(tx, rx, link_rng);
  ASSERT_GT(link.paths().size(), 1u);
  const Codebook tx_cb = Codebook::dft(tx);
  const Codebook rx_cb = Codebook::dft(rx);

  // The strongest pair, so path, noise and interference terms all differ.
  index_t t_best = 0, r_best = 0;
  real gain = 0.0;
  for (index_t t = 0; t < tx_cb.size(); ++t)
    for (index_t r = 0; r < rx_cb.size(); ++r) {
      const real g =
          link.mean_pair_gain(tx_cb.codeword(t), rx_cb.codeword(r));
      if (g > gain) {
        gain = g;
        t_best = t;
        r_best = r;
      }
    }
  const real gamma = 0.5;
  // Interference as strong as the pair's own path gain doubles λ.
  const std::vector<real> interference(rx_cb.size(), gain);
  ProbeView view;
  view.link = &link;
  view.tx_codebook = &tx_cb;
  view.rx_codebook = &rx_cb;
  view.gamma = gamma;
  view.blockage_probability = c.blockage;
  if (c.interfered) view.interference = interference;
  const real noise = 1.0 / gamma + (c.interfered ? gain : 0.0);

  std::vector<real> law(kDraws), reference(kDraws);
  for (index_t i = 0; i < kDraws; ++i) {
    Rng a = Rng::stream(17, i);
    law[i] = probe_energy(view, t_best, r_best, c.fades, a);
    Rng b = Rng::stream(71, i);
    const bool blocked = c.blockage > 0.0 && b.uniform() < c.blockage;
    reference[i] = test::per_fade_energy(link, tx_cb.codeword(t_best),
                                         rx_cb.codeword(r_best), noise,
                                         blocked, c.fades, b);
  }

  const test::LawMoments want = test::energy_law_moments(
      gain + noise, noise, c.blockage, c.fades, kDraws);
  for (const auto* sample : {&law, &reference}) {
    const test::Moments got = test::moments(*sample);
    const char* side = sample == &law ? "law" : "per-fade";
    EXPECT_NEAR(got.mean, want.mean, kSigmas * want.mean_se) << side;
    EXPECT_NEAR(got.variance, want.variance, kSigmas * want.variance_se)
        << side;
  }
  EXPECT_TRUE(test::ks_same_law(law, reference, kAlpha))
      << "D = " << test::ks_two_sample(law, reference);
}

TEST(ProbeEnergyLawTest, NycN64EightFades) { check_case({"n64_f8"}); }

TEST(ProbeEnergyLawTest, NycN16FourFades) {
  check_case({"n16_f4", 4, 4});
}

TEST(ProbeEnergyLawTest, SingleFadeIsExponential) {
  check_case({"n64_f1", 8, 1});
}

TEST(ProbeEnergyLawTest, BlockedSlotSeesNoiseOnly) {
  check_case({"blocked", 8, 4, 1.0});
}

TEST(ProbeEnergyLawTest, BernoulliBlockageMixesTheTwoLaws) {
  check_case({"sometimes_blocked", 8, 4, 0.4});
}

TEST(ProbeEnergyLawTest, InterferenceRaisesTheNoiseFloor) {
  check_case({"interference", 8, 8, 0.0, true});
}

// The draw sequence: one uniform when blockage can strike, then one gamma
// draw; the legacy overload's workspace is left untouched.
TEST(ProbeEnergyLawTest, DrawSequenceIsBlockageUniformThenOneGamma) {
  const auto tx = ArrayGeometry::upa(2, 2);
  const auto rx = ArrayGeometry::upa(4, 4);
  Rng link_rng(5);
  const channel::Link link =
      channel::make_nyc_multipath_link(tx, rx, link_rng);
  const Codebook tx_cb = Codebook::dft(tx);
  const Codebook rx_cb = Codebook::dft(rx);
  ProbeView view{&link, &tx_cb, &rx_cb, 2.0, 0.3, {}};
  const real lambda =
      link.mean_pair_gain(tx_cb.codeword(1), rx_cb.codeword(6)) + 0.5;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng a(seed), b(seed);
    linalg::Vector scratch(3);
    scratch[0] = cx{7.0, -7.0};
    const real got = probe_energy(view, 1, 6, 4, a, scratch);
    const bool blocked = b.uniform() < 0.3;
    EXPECT_EQ(got, sample_energy(blocked ? 0.5 : lambda, 4, b));
    EXPECT_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(scratch[0], (cx{7.0, -7.0}));
  }
}

TEST(ProbeEnergyLawTest, SampleEnergyIsGammaOfShapeFades) {
  for (const index_t fades : {1, 3, 8}) {
    Rng a(fades), b(fades);
    for (int i = 0; i < 20; ++i)
      EXPECT_EQ(sample_energy(2.5, fades, a),
                b.gamma(static_cast<real>(fades),
                        2.5 / static_cast<real>(fades)));
  }
  Rng rng(1);
  EXPECT_THROW(sample_energy(1.0, 0, rng), precondition_error);
}

}  // namespace
}  // namespace mmw::mac
