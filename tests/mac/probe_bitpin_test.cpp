// Bit-pin of fade synthesis: mac::probe_energy on NYC multipath links.
//
// probe_energy is the one path every simulated measurement takes (uniform
// blockage coin, complex-normal noise, per-path complex-normal gains, the
// matched filter vᴴ(H·u)). Its fast path spells the variates and the
// complex products out by hand (DESIGN.md §7); these tests prove it still
// performs the arithmetic of the std::complex / std::*_distribution
// formulation it replaced, by comparing bit for bit with hexfloats captured
// from that formulation. Each case also pins the stream position: after its
// probes, the next uniform() and normal() of the stream are part of the
// expected output.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "channel/models.h"
#include "mac/probe.h"

namespace mmw::mac {
namespace {

using antenna::ArrayGeometry;
using antenna::Codebook;
using channel::Link;
using randgen::Rng;

struct Rig {
  ArrayGeometry tx;
  ArrayGeometry rx;
  Link link;
  Codebook tx_cb;
  Codebook rx_cb;
  std::vector<real> interference;

  Rig(ArrayGeometry tx_geo, ArrayGeometry rx_geo, std::uint64_t seed)
      : tx(tx_geo),
        rx(rx_geo),
        link(make_link(tx, rx, seed)),
        tx_cb(Codebook::dft(tx)),
        rx_cb(Codebook::dft(rx)),
        interference(rx_cb.size()) {
    for (index_t v = 0; v < interference.size(); ++v)
      interference[v] = 0.05 * static_cast<real>(v % 7);
  }

  static Link make_link(const ArrayGeometry& tx, const ArrayGeometry& rx,
                        std::uint64_t seed) {
    Rng rng(seed);
    return channel::make_nyc_multipath_link(tx, rx, rng);
  }
};

struct Case {
  std::string name;
  std::vector<real> outputs;  ///< probe energies, then uniform(), normal()
};

/// Runs `pairs` probes of `fades` fades on one stream, then draws the
/// stream's next uniform and normal.
std::vector<real> run_probes(const Rig& rig, real blockage, bool interfered,
                             index_t fades, index_t pairs,
                             std::uint64_t seed) {
  const ProbeView view{&rig.link, &rig.tx_cb, &rig.rx_cb, 3.0, blockage,
                       interfered ? std::span<const real>(rig.interference)
                                  : std::span<const real>()};
  linalg::Vector scratch(rig.link.rx_size());
  Rng rng(seed);
  std::vector<real> out;
  for (index_t p = 0; p < pairs; ++p) {
    const index_t t = (p * 5 + 1) % rig.tx_cb.size();
    const index_t r = (p * 11 + 3) % rig.rx_cb.size();
    out.push_back(probe_energy(view, t, r, fades, rng, scratch));
  }
  out.push_back(rng.uniform());
  out.push_back(rng.normal());
  return out;
}

std::vector<Case> bitpin_cases() {
  const Rig n64(ArrayGeometry::upa(4, 4), ArrayGeometry::upa(8, 8), 2016);
  const Rig n16(ArrayGeometry::upa(2, 2), ArrayGeometry::upa(4, 4), 61016);
  std::vector<Case> out;
  for (const auto& [tag, rig] : {std::pair{"n64", &n64}, {"n16", &n16}}) {
    for (index_t fades = 1; fades <= 8; ++fades)
      out.push_back({std::string("nyc_") + tag + "_f" + std::to_string(fades),
                     run_probes(*rig, 0.0, false, fades, 3, 100 + fades)});
    out.push_back({std::string("nyc_") + tag + "_blocked",
                   run_probes(*rig, 1.0, false, 4, 3, 200)});
    out.push_back({std::string("nyc_") + tag + "_sometimes_blocked",
                   run_probes(*rig, 0.5, false, 2, 8, 300)});
    out.push_back({std::string("nyc_") + tag + "_interference",
                   run_probes(*rig, 0.0, true, 4, 3, 400)});
  }
  return out;
}

struct Expected {
  const char* name;
  std::vector<real> outputs;
};

const std::vector<Expected>& expected() {
  static const std::vector<Expected> table = {
#include "probe_bitpin_expected.inc"
  };
  return table;
}

std::string hex(real x) {
  std::ostringstream os;
  os << std::hexfloat << x;
  return os.str();
}

/// Bitwise comparison (distinguishes −0.0 from +0.0), reporting the first
/// mismatching index in hexfloat.
::testing::AssertionResult same_bits(const std::vector<real>& got,
                                     const std::vector<real>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  for (index_t i = 0; i < got.size(); ++i)
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i]))
      return ::testing::AssertionFailure() << "element " << i << ": "
                                           << hex(got[i]) << " vs "
                                           << hex(want[i]);
  return ::testing::AssertionSuccess();
}

TEST(ProbeBitPinTest, LinksAreMultipath) {
  EXPECT_GT(Rig(ArrayGeometry::upa(4, 4), ArrayGeometry::upa(8, 8), 2016)
                .link.paths()
                .size(),
            1u);
  EXPECT_GT(Rig(ArrayGeometry::upa(2, 2), ArrayGeometry::upa(4, 4), 61016)
                .link.paths()
                .size(),
            1u);
}

TEST(ProbeBitPinTest, ProbeEnergyAndStreamPositionMatchPinnedBits) {
  const auto cases = bitpin_cases();
  ASSERT_EQ(cases.size(), expected().size());
  for (index_t k = 0; k < cases.size(); ++k) {
    SCOPED_TRACE(cases[k].name);
    EXPECT_EQ(cases[k].name, expected()[k].name);
    EXPECT_TRUE(same_bits(cases[k].outputs, expected()[k].outputs));
  }
}

}  // namespace
}  // namespace mmw::mac
