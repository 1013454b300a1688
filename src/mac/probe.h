// The resident-state-free measurement chain: one matched-filter probe of a
// beam pair over a realized link, with blockage and interference folded in.
//
// mac::Session owns per-run resident state (budget, ledger, records) around
// this chain; the serving engine (src/serve/) rebuilds links from RNG
// streams every epoch and probes through the SAME chain without holding a
// Session per user — which is why the chain lives here as a borrowed-view
// free function instead of a Session private (DESIGN.md §13).
//
// Determinism: probe_energy consumes a fixed draw sequence from `rng` —
// one uniform when blockage_probability > 0, then per fade one
// complex-normal noise draw plus (unless the slot is blocked) one effective
// channel draw — identical to the historical Session::probe_energy, so
// extracting it moved no bytes in any golden CSV.
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

/// Simulates one measurement slot of `fades` independent fades on the pair
/// (tx_beam, rx_beam) and returns the average matched-filter energy |z|².
/// `scratch` is the caller's reusable per-path workspace: grown to 2·paths
/// entries when smaller, then overwritten. Reusing one across calls keeps
/// the steady state allocation-free. It must not alias anything in `view`.
/// Preconditions: indices valid, fades ≥ 1, view pointers non-null,
/// view.interference empty or sized to the RX codebook.
real probe_energy(const ProbeView& view, index_t tx_beam, index_t rx_beam,
                  index_t fades, randgen::Rng& rng, linalg::Vector& scratch);

}  // namespace mmw::mac
