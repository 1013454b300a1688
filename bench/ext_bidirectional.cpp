// Extension E6: bidirectional ("ping-pong") training vs Algorithm 1.
//
// Algorithm 1 picks TX beams blindly at random and only learns the RX side;
// the ping-pong variant alternates roles so both ends learn, which the
// paper's Sec. III-A remark about reverse-link transmission invites. Same
// measurement budget, same ledger — the difference is pure algorithm.
#include <cstdio>

#include "fig_common.h"

int main(int argc, char** argv) {
  const mmw::bench::Cli cli(
      argc, argv, "Extension E6: bidirectional (ping-pong) training.", {});
  mmw::bench::BenchRun run("ext_bidirectional", cli);
  using namespace mmw;
  using namespace mmw::sim;

  bench::print_header("Extension E6", "bidirectional (ping-pong) training",
                      cli.threads());

  core::RandomSearch random_search;
  core::ProposedAlignment proposed;
  core::PingPongAlignment ping_pong;
  const std::vector<const core::AlignmentStrategy*> strategies{
      &random_search, &proposed, &ping_pong};
  const std::vector<real> rates{0.02, 0.05, 0.10, 0.20};

  for (const auto kind :
       {ChannelKind::kSinglePath, ChannelKind::kNycMultipath}) {
    Scenario sc = bench::paper_scenario(kind, 25);
    sc.threads = cli.threads();
    const auto res = run_search_effectiveness(sc, strategies, rates);
    std::printf("%s channel\n%s\n",
                kind == ChannelKind::kSinglePath ? "single-path"
                                                 : "NYC multipath",
                render_table("search_rate", res.search_rates, res.loss_db)
                    .c_str());
  }
  run.finish();
  return 0;
}
