// The resident-state-free measurement chain: one matched-filter probe of a
// beam pair over a realized link, with blockage and interference folded in.
//
// mac::Session owns per-run resident state (budget, ledger, records) around
// this chain; the serving engine (src/serve/) rebuilds links from RNG
// streams every epoch and probes through the SAME chain without holding a
// Session per user — which is why the chain lives here as a borrowed-view
// free function instead of a Session private (DESIGN.md §13).
//
// The energy law: every path gain, the noise and the co-channel
// interference are zero-mean CN and independent per fade, so one fade's
// matched-filter output z = vᴴHu + n is exactly CN(0, λ) with
// λ = mean_pair_gain(u, v) + 1/γ + I_v, and the slot average
// w̄ = (1/F)Σ|z_f|² of F fades is exactly Gamma(F, λ/F) (DESIGN.md §7).
// probe_energy samples that law instead of synthesizing the fades.
//
// Determinism: probe_energy consumes a fixed draw sequence from `rng` —
// one uniform when blockage_probability > 0 (a blocked slot drops the
// path term from λ), then one sample_energy draw.
#pragma once

#include <span>

#include "antenna/codebook.h"
#include "channel/link.h"
#include "randgen/rng.h"

namespace mmw::mac {

/// Borrowed view of everything one probe needs. All pointers are non-owning
/// and must outlive the call; `link` is the ACTIVE link (callers with a
/// fault plan resolve clean vs degraded before building the view).
struct ProbeView {
  const channel::Link* link = nullptr;
  const antenna::Codebook* tx_codebook = nullptr;
  const antenna::Codebook* rx_codebook = nullptr;
  /// Linear pre-beamforming Es/N0 (noise variance is 1/gamma).
  real gamma = 0.0;
  /// Per-slot Bernoulli blockage: with this probability the whole probe is
  /// shadowed and the matched filter sees noise only. 0 = never.
  real blockage_probability = 0.0;
  /// Mean co-channel interference power per RX codeword (linear, added to
  /// the noise floor); empty = no interference.
  std::span<const real> interference = {};
};

/// The average of `fades` independent |z|², z ~ CN(0, lambda): one
/// Gamma(fades, lambda/fades) draw. Preconditions: lambda > 0, fades ≥ 1.
real sample_energy(real lambda, index_t fades, randgen::Rng& rng);

/// Simulates one measurement slot of `fades` independent fades on the pair
/// (tx_beam, rx_beam) and returns the average matched-filter energy |z|².
/// Preconditions: indices valid, fades ≥ 1, view pointers non-null,
/// view.interference empty or sized to the RX codebook.
real probe_energy(const ProbeView& view, index_t tx_beam, index_t rx_beam,
                  index_t fades, randgen::Rng& rng);

/// The same probe for callers that still pass a per-fade workspace:
/// `scratch` is unused and left untouched.
inline real probe_energy(const ProbeView& view, index_t tx_beam,
                         index_t rx_beam, index_t fades, randgen::Rng& rng,
                         linalg::Vector& /*scratch*/) {
  return probe_energy(view, tx_beam, rx_beam, fades, rng);
}

}  // namespace mmw::mac
