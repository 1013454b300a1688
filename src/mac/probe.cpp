#include "mac/probe.h"

#include "obs/metrics.h"

namespace mmw::mac {

real sample_energy(real lambda, index_t fades, randgen::Rng& rng) {
  MMW_REQUIRE(fades > 0);
  const real f = static_cast<real>(fades);
  return rng.gamma(f, lambda / f);
}

real probe_energy(const ProbeView& view, index_t tx_beam, index_t rx_beam,
                  index_t fades, randgen::Rng& rng) {
  MMW_REQUIRE(view.link != nullptr && view.tx_codebook != nullptr &&
              view.rx_codebook != nullptr);
  MMW_REQUIRE(tx_beam < view.tx_codebook->size());
  MMW_REQUIRE(rx_beam < view.rx_codebook->size());
  MMW_REQUIRE(view.interference.empty() ||
              view.interference.size() == view.rx_codebook->size());
  // Bernoulli blockage shadows the whole slot, not individual fades.
  const bool blocked = view.blockage_probability > 0.0 &&
                       rng.uniform() < view.blockage_probability;
  // Effective noise floor: thermal 1/γ plus the beam's mean co-channel
  // interference power (multi-cell runs; 0 otherwise).
  const real noise_var =
      1.0 / view.gamma +
      (view.interference.empty() ? 0.0 : view.interference[rx_beam]);
  const real path =
      blocked ? 0.0
              : view.link->mean_pair_gain(view.tx_codebook->codeword(tx_beam),
                                          view.rx_codebook->codeword(rx_beam));
  if (blocked && obs::enabled()) {
    static const obs::Counter counter =
        obs::Registry::global().counter("mac.session.blocked");
    counter.add();
  }
  return sample_energy(path + noise_var, fades, rng);
}

}  // namespace mmw::mac
