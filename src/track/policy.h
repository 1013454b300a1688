// Deterministic RX probe selection shared by the warm_ml tracker
// (track/tracker.h) and the serving engine (serve/serve.h). An alignment
// slot's RX probe set is the covariance-directed exploit picks followed by
// the cursor-sweep exploration picks. Each selector is a pure function of
// its inputs — no RNG, no hidden state — so a 96-byte resident UserSession
// (serve/) runs the same selection as a heap-backed Tracker: the session's
// cursor/beam fields ARE the tracker state.
#pragma once

#include <vector>

#include "antenna/codebook.h"
#include "linalg/factored.h"

namespace mmw::track {

/// Covariance-directed candidates (the paper's Sec. IV-B measurement):
/// scores every RX codeword by c_vᴴ q c_v and appends the highest-scoring
/// index not already in `out`, max(j − 1, 1) times (j > 1 keeps one slot
/// for exploration). Ties break to the lowest index; picking stops at the
/// first pick whose best score is not positive, so an empty q (or one with
/// no positive mass) appends nothing. `scores` is caller scratch, resized
/// to rx_codebook.size() and overwritten.
void append_directed_probes(const linalg::FactoredHermitian& q,
                            const antenna::Codebook& rx_codebook, index_t j,
                            std::vector<real>& scores,
                            std::vector<index_t>& out);

/// Cursor-sweep candidates: appends probes (user_key + cursor + i) mod n_rx,
/// skipping indices already in `out`, until out has `want` entries.
/// Preconditions: want ≤ n_rx, n_rx ≥ 1.
void append_cursor_probes(std::uint64_t user_key, std::uint64_t cursor,
                          index_t n_rx, index_t want,
                          std::vector<index_t>& out);

}  // namespace mmw::track
