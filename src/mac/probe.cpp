#include "mac/probe.h"

#include <cmath>

#include "linalg/matrix.h"
#include "obs/metrics.h"

namespace mmw::mac {

real probe_energy(const ProbeView& view, index_t tx_beam, index_t rx_beam,
                  index_t fades, randgen::Rng& rng, linalg::Vector& scratch) {
  MMW_REQUIRE(view.link != nullptr && view.tx_codebook != nullptr &&
              view.rx_codebook != nullptr);
  MMW_REQUIRE(tx_beam < view.tx_codebook->size());
  MMW_REQUIRE(rx_beam < view.rx_codebook->size());
  MMW_REQUIRE(fades > 0);
  MMW_REQUIRE(view.interference.empty() ||
              view.interference.size() == view.rx_codebook->size());
  const linalg::Vector& u = view.tx_codebook->codeword(tx_beam);
  const linalg::Vector& v = view.rx_codebook->codeword(rx_beam);
  // Bernoulli blockage shadows the whole slot, not individual fades.
  const bool blocked = view.blockage_probability > 0.0 &&
                       rng.uniform() < view.blockage_probability;
  // Effective noise floor: thermal 1/γ plus the beam's mean co-channel
  // interference power (multi-cell runs; 0 otherwise).
  const real noise_var =
      1.0 / view.gamma +
      (view.interference.empty() ? 0.0 : view.interference[rx_beam]);
  // Per-path workspace: the TX gains a_tx,lᴴu, fixed for the dwell and so
  // computed once here, then each fade's path gains.
  const index_t paths = view.link->paths().size();
  if (scratch.size() < 2 * paths) scratch = linalg::Vector(2 * paths);
  const std::span<cx> tx_gains = scratch.data().first(paths);
  const std::span<cx> fade_gains = scratch.data().subspan(paths, paths);
  if (!blocked) view.link->tx_gains_into(u, tx_gains);
  // Average matched-filter energy over the slot's independent fades.
  real energy = 0.0;
  for (index_t k = 0; k < fades; ++k) {
    cx z = rng.complex_normal(noise_var);
    if (!blocked) z += view.link->draw_matched_filter(tx_gains, v, rng,
                                                      fade_gains);
    energy += std::norm(z);
  }
  if (blocked && obs::enabled()) {
    static const obs::Counter counter =
        obs::Registry::global().counter("mac.session.blocked");
    counter.add();
  }
  return energy / static_cast<real>(fades);
}

}  // namespace mmw::mac
