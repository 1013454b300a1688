// Layer probes: the traced run times single public functions on the
// workloads' shapes (N = 64 at 8 fades for the paper's RX array, N = 16 at
// 4 fades for the serving/tracking arrays, 6 beam-space components) with
// inputs drawn from the workload's own channel model. Each probe reports
// its median per-call cost in seconds as "probe.<name>".
#include "channel/temporal.h"
#include "estimation/beamspace.h"
#include "linalg/eig.h"
#include "mac/probe.h"
#include "randgen/keylanes.h"
#include "workloads.h"

namespace perfbench {

using namespace mmw;

namespace {

/// Beam-space components each resident estimate keeps (serve/track parity).
constexpr index_t kComponents = 6;

/// A Hermitian matrix shaped like the ML prox input: the link's RX
/// covariance plus the noise floor, perturbed by a random Hermitian term
/// (a gradient step is never exactly PSD or low-rank).
linalg::Matrix prox_like_covariance(const channel::Link& link, real gamma,
                                    randgen::Rng& rng) {
  const index_t n = link.rx_size();
  linalg::Matrix q = link.rx_covariance();
  q += linalg::Matrix::identity(n) * cx{1.0 / gamma, 0.0};
  const linalg::Matrix g = rng.complex_gaussian_matrix(n, n, 1e-3);
  q += g + g.adjoint();
  return q;
}

/// Times mac::probe_energy on `sc`'s link and codebooks, cycling pairs.
double time_probe(const sim::Scenario& sc, std::uint64_t seed) {
  randgen::Rng rng = randgen::Rng::stream(seed, 1);
  const channel::Link link = sim::make_scenario_link(sc, rng);
  const sim::CodebookPair cb = sim::make_scenario_codebooks(sc);
  mac::ProbeView view;
  view.link = &link;
  view.tx_codebook = &cb.tx;
  view.rx_codebook = &cb.rx;
  view.gamma = sc.gamma;
  linalg::Vector scratch(link.rx_size());
  index_t pair = 0;
  const index_t pairs = cb.tx.size() * cb.rx.size();
  return per_call_seconds([&] {
    const index_t p = pair++ % pairs;
    return mac::probe_energy(view, p / cb.rx.size(), p % cb.rx.size(),
                             sc.fades_per_measurement, rng, scratch);
  });
}

double time_jacobi(const sim::Scenario& sc, std::uint64_t seed) {
  randgen::Rng rng = randgen::Rng::stream(seed, 2);
  const channel::Link link = sim::make_scenario_link(sc, rng);
  const linalg::Matrix q = prox_like_covariance(link, sc.gamma, rng);
  return per_call_seconds(
      [&] { return linalg::hermitian_eig(q).eigenvalues.front(); }, 0.05, 5);
}

}  // namespace

void run_layer_probes(const sim::Scenario& own, std::uint64_t seed, Raw& raw) {
  const sim::Scenario n64 = align_scenario(seed);
  const sim::Scenario n16 =
      own.rx_grid_x * own.rx_grid_y == 16 ? own : track_scenario(seed);

  // randgen: stream set-up and single draws.
  {
    std::uint64_t k = 0;
    raw.scalar("probe.randgen.stream", per_call_seconds([&] {
                 return randgen::Rng::stream(seed, k++).engine()();
               }));
    randgen::Rng rng(seed);
    raw.scalar("probe.randgen.normal",
               per_call_seconds([&] { return rng.normal(); }));
    raw.scalar("probe.randgen.uniform",
               per_call_seconds([&] { return rng.uniform(); }));
    raw.scalar("probe.randgen.complex_normal", per_call_seconds([&] {
                 const cx z = rng.complex_normal();
                 return z.real() + z.imag();
               }));
  }

  // sim: one link realization of the workload's own channel.
  {
    randgen::Rng rng = randgen::Rng::stream(seed, 3);
    raw.scalar("probe.sim.make_link", per_call_seconds([&] {
                 return sim::make_scenario_link(own, rng).total_power();
               }));
  }

  // channel: one epoch of large-scale evolution (seek + realize) of the
  // workload's link, with the E10 vehicle-speed knobs.
  {
    randgen::Rng rng = randgen::Rng::stream(seed, 4);
    const channel::Link base = sim::make_scenario_link(own, rng);
    channel::EvolutionConfig evo_cfg;
    evo_cfg.speed_mps = 13.9;
    evo_cfg.shadow_sigma_db = 2.0;
    evo_cfg.blockage_onset_per_meter = 0.002;
    evo_cfg.blockage_clear_probability = 0.25;
    channel::LinkEvolution evo(
        antenna::ArrayGeometry::upa(own.tx_grid_x, own.tx_grid_y),
        antenna::ArrayGeometry::upa(own.rx_grid_x, own.rx_grid_y),
        base.paths(), evo_cfg, seed, randgen::lanes::temporal_lane(0), 0);
    index_t epoch = 0;
    raw.scalar("probe.channel.evolve", per_call_seconds([&] {
                 evo.seek(++epoch);
                 return evo.current().total_power();
               }));
  }

  // mac: one matched-filter probe slot.
  raw.scalar("probe.mac.probe_n64", time_probe(n64, seed));
  raw.scalar("probe.mac.probe_n16", time_probe(n16, seed));

  // linalg: the two Hermitian eigensolvers on prox-shaped inputs.
  raw.scalar("probe.linalg.eig_jacobi_n64", time_jacobi(n64, seed));
  raw.scalar("probe.linalg.eig_jacobi_n16", time_jacobi(n16, seed));
  {
    randgen::Rng rng = randgen::Rng::stream(seed, 5);
    const channel::Link link = sim::make_scenario_link(n64, rng);
    const linalg::Matrix q = prox_like_covariance(link, n64.gamma, rng);
    raw.scalar("probe.linalg.eig_ql_n64", per_call_seconds([&] {
                 return linalg::hermitian_eig_ql(q).eigenvalues.front();
               }, 0.05, 5));
    // The size the ML prox actually decomposes: the solver works in the
    // span of the slot's J = 6 probed codewords, so its iterates are 6×6.
    const sim::CodebookPair cb = sim::make_scenario_codebooks(n64);
    std::vector<estimation::BeamComponent> span;
    for (const index_t b : rng.sample_without_replacement(cb.rx.size(), 6))
      span.push_back({b, 1.0});
    std::sort(span.begin(), span.end(),
              [](const auto& a, const auto& b) { return a.beam < b.beam; });
    const linalg::FactoredHermitian spanned =
        estimation::expand_beam_space(span, cb.rx);
    const linalg::Matrix q6 =
        spanned.basis().adjoint() * q * spanned.basis();
    raw.scalar("probe.linalg.eig_jacobi_n6", per_call_seconds([&] {
                 return linalg::hermitian_eig(q6).eigenvalues.front();
               }));
  }

  // antenna: Rayleigh scores of every N = 64 codeword under a rank-6
  // factored covariance; estimation: one beam-space merge at N = 16.
  {
    const sim::CodebookPair cb64 = sim::make_scenario_codebooks(n64);
    const sim::CodebookPair cb16 = sim::make_scenario_codebooks(n16);
    randgen::Rng rng = randgen::Rng::stream(seed, 6);
    auto components = [&](const antenna::Codebook& cb) {
      std::vector<estimation::BeamComponent> c;
      for (const index_t b :
           rng.sample_without_replacement(cb.size(), kComponents))
        c.push_back({b, rng.exponential(1.0)});
      std::sort(c.begin(), c.end(),
                [](const auto& a, const auto& b) { return a.beam < b.beam; });
      return c;
    };
    const linalg::FactoredHermitian q64 =
        estimation::expand_beam_space(components(cb64.rx), cb64.rx);
    std::vector<real> scores(cb64.rx.size());
    raw.scalar("probe.antenna.scores_n64", per_call_seconds([&] {
                 cb64.rx.covariance_scores_into(q64, scores);
                 return scores.front();
               }));
    const auto prior = components(cb16.rx);
    const auto update = components(cb16.rx);
    raw.scalar("probe.estimation.beamspace_merge", per_call_seconds([&] {
                 return estimation::merge_beam_space(prior, 0.7, update,
                                                     kComponents)
                     .front()
                     .weight;
               }));
  }
}

}  // namespace perfbench
