// Ablation A2: the nuclear-norm regularization weight μ (paper eq. 25).
//
// Two views: (a) pure estimation quality — relative Frobenius error of Q̂
// against a planted low-rank covariance from undersampled measurements;
// (b) end-to-end alignment loss when the proposed scheme runs with that μ.
#include <cstdio>

#include "channel/link.h"
#include "fig_common.h"
#include "linalg/functions.h"

int main(int argc, char** argv) {
  const mmw::bench::Cli cli(
      argc, argv, "Ablation A2: regularization weight mu sweep.", {});
  mmw::bench::BenchRun run("ablation_mu_sweep", cli);
  using namespace mmw;
  using namespace mmw::sim;
  using linalg::Matrix;
  using linalg::Vector;

  bench::print_header("Ablation A2", "regularization weight mu sweep",
                      cli.threads());

  const std::vector<real> mus{0.0, 0.01, 0.05, 0.2, 1.0, 5.0};

  // (a) Estimation error on a synthetic rank-2 covariance, N=16, J=10.
  std::printf("estimation view: rank-2 Q, N=16, J=10, gamma=20 dB\n");
  std::printf("mu\trel_frobenius_error\tnumerical_rank\n");
  const real gamma = 100.0;
  for (const real mu : mus) {
    randgen::Rng rng(7);
    real err = 0.0;
    real rank = 0.0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
      Matrix q(16, 16);
      for (int k = 0; k < 2; ++k) {
        const Vector x = rng.random_unit_vector(16);
        q += Matrix::outer(x, x) * cx{32.0, 0.0};
      }
      const Matrix root = linalg::hermitian_sqrt(q);
      std::vector<estimation::BeamMeasurement> ms;
      for (int j = 0; j < 10; ++j) {
        estimation::BeamMeasurement m;
        m.beam = rng.random_unit_vector(16);
        const Vector h = root * rng.complex_gaussian_vector(16);
        m.energy = std::norm(linalg::dot(m.beam, h) +
                             rng.complex_normal(1.0 / gamma));
        ms.push_back(std::move(m));
      }
      estimation::CovarianceMlOptions opts;
      opts.gamma = gamma;
      opts.mu = mu;
      const auto res = estimation::estimate_covariance_ml(16, ms, opts);
      err += (res.q.dense() - q).frobenius_norm() / q.frobenius_norm();
      rank += static_cast<real>(linalg::numerical_rank(res.q.dense(), 1e-6));
    }
    std::printf("%.3f\t%.4f\t%.1f\n", mu, err / trials, rank / trials);
  }

  // (b) End-to-end alignment loss at a 10% search rate.
  std::printf("\nend-to-end view: mean SNR loss (dB) at 10%% search rate\n");
  std::printf("mu\tsingle-path\tmultipath\n");
  for (const real mu : mus) {
    std::printf("%.3f", mu);
    for (const auto kind :
         {ChannelKind::kSinglePath, ChannelKind::kNycMultipath}) {
      Scenario sc = bench::paper_scenario(kind, 20);
      sc.threads = cli.threads();
      core::ProposedOptions opts;
      opts.estimator.mu = mu;
      core::ProposedAlignment proposed(opts);
      const auto res = run_search_effectiveness(sc, {&proposed}, {0.10});
      std::printf("\t%.3f", res.loss_db.at("Proposed")[0].mean);
    }
    std::printf("\n");
  }
  run.finish();
  return 0;
}
