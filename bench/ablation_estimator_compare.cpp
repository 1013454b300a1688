// Ablation A4: the covariance estimator inside the proposed scheme —
// regularized ML (the paper's, eq. 23) vs the moment ("sample covariance")
// estimator vs diagonal loading.
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  const mmw::bench::Cli cli(
      argc, argv, "Ablation A4: covariance estimator comparison.", {});
  mmw::bench::BenchRun run("ablation_estimator_compare", cli);
  using namespace mmw;
  using namespace mmw::sim;

  bench::print_header("Ablation A4", "covariance estimator comparison",
                      cli.threads());

  const std::vector<real> rates{0.05, 0.10, 0.20};
  const std::pair<core::EstimatorKind, const char*> kinds[] = {
      {core::EstimatorKind::kRegularizedMl, "regularized_ml"},
      {core::EstimatorKind::kEmMl, "em_ml"},
      {core::EstimatorKind::kSampleCovariance, "sample_covariance"},
      {core::EstimatorKind::kDiagonalLoading, "diagonal_loading"},
  };

  for (const auto kind :
       {ChannelKind::kSinglePath, ChannelKind::kNycMultipath}) {
    std::printf("%s channel — mean SNR loss (dB)\n",
                kind == ChannelKind::kSinglePath ? "single-path"
                                                 : "NYC multipath");
    std::printf("estimator");
    for (const real r : rates) std::printf("\t%.0f%%", 100.0 * r);
    std::printf("\n");
    Scenario sc = bench::paper_scenario(kind, 20);
    sc.threads = cli.threads();
    for (const auto& [ek, label] : kinds) {
      core::ProposedOptions opts;
      opts.estimator_kind = ek;
      core::ProposedAlignment proposed(opts);
      const auto res = run_search_effectiveness(sc, {&proposed}, rates);
      std::printf("%s", label);
      for (const auto& s : res.loss_db.at("Proposed"))
        std::printf("\t%.3f", s.mean);
      std::printf("\n");
    }
    std::printf("\n");
  }
  run.finish();
  return 0;
}
