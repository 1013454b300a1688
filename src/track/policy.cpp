#include "track/policy.h"

#include <algorithm>

namespace mmw::track {

namespace {

bool contains(const std::vector<index_t>& v, index_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

void append_directed_probes(const linalg::FactoredHermitian& q,
                            const antenna::Codebook& rx_codebook, index_t j,
                            std::vector<real>& scores,
                            std::vector<index_t>& out) {
  if (q.empty()) return;
  const index_t n = rx_codebook.size();
  scores.resize(n);
  rx_codebook.covariance_scores_into(q, scores);
  const index_t top = j > 1 ? j - 1 : 1;
  for (index_t pick = 0; pick < top; ++pick) {
    index_t best = n;
    real best_score = 0.0;
    for (index_t v = 0; v < n; ++v) {
      if (!(scores[v] > best_score)) continue;  // ties → lowest v
      if (contains(out, v)) continue;
      best = v;
      best_score = scores[v];
    }
    if (best == n) break;  // no more positive mass
    out.push_back(best);
  }
}

void append_cursor_probes(std::uint64_t user_key, std::uint64_t cursor,
                          index_t n_rx, index_t want,
                          std::vector<index_t>& out) {
  MMW_REQUIRE(n_rx >= 1 && want <= n_rx);
  index_t cand = static_cast<index_t>((user_key + cursor) %
                                      static_cast<std::uint64_t>(n_rx));
  while (out.size() < want) {
    while (contains(out, cand)) cand = (cand + 1) % n_rx;
    out.push_back(cand);
    cand = (cand + 1) % n_rx;
  }
}

}  // namespace mmw::track
