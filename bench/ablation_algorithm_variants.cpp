// Ablation A9: the Algorithm-1 implementation choices DESIGN.md §5b calls
// out — the exploration fallback (probes revert to random when the carried
// estimate has no signal) and the end-of-slot re-estimate that folds the
// J-th measurement into the carried covariance. "literal" disables both,
// i.e. the paper's Algorithm 1 exactly as written.
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  const mmw::bench::Cli cli(
      argc, argv, "Ablation A9: Algorithm 1 variants.", {});
  mmw::bench::BenchRun run("ablation_algorithm_variants", cli);
  using namespace mmw;
  using namespace mmw::sim;

  bench::print_header("Ablation A9", "Algorithm 1 variants", cli.threads());

  struct Variant {
    const char* name;
    real exploration_floor;
    bool reestimate_with_final;
  };
  const Variant variants[] = {
      {"default", 1.0, true},
      {"literal_algorithm1", 0.0, false},
      {"no_exploration_fallback", 0.0, true},
      {"no_final_reestimate", 1.0, false},
  };
  const std::vector<real> rates{0.05, 0.10, 0.20};

  for (const auto kind :
       {ChannelKind::kSinglePath, ChannelKind::kNycMultipath}) {
    std::printf("%s channel — mean SNR loss (dB)\n",
                kind == ChannelKind::kSinglePath ? "single-path"
                                                 : "NYC multipath");
    std::printf("variant");
    for (const real r : rates) std::printf("\t%.0f%%", 100.0 * r);
    std::printf("\n");
    Scenario sc = bench::paper_scenario(kind, 20);
    sc.threads = cli.threads();
    for (const Variant& v : variants) {
      core::ProposedOptions opts;
      opts.exploration_floor = v.exploration_floor;
      opts.reestimate_with_final = v.reestimate_with_final;
      core::ProposedAlignment proposed(opts);
      const auto res = run_search_effectiveness(sc, {&proposed}, rates);
      std::printf("%s", v.name);
      for (const auto& s : res.loss_db.at("Proposed"))
        std::printf("\t%.3f", s.mean);
      std::printf("\n");
    }
    std::printf("\n");
  }
  run.finish();
  return 0;
}
