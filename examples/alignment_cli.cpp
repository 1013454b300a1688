// Command-line experiment driver: run any of the paper's experiments with
// custom parameters without writing code.
//
// Usage: alignment_cli --help
//
// Instrumentation: --trace/--metrics turn the obs layer on; otherwise it
// follows MMW_OBS (default off for this example — zero overhead).
//
// Examples:
//   alignment_cli --channel nyc --experiment loss --trials 30
//   alignment_cli --experiment cost --targets 3,2,1 --csv
//   alignment_cli --trials 5 --trace run_trace.json --metrics run_metrics.json
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/manifest.h"
#include "obs/trace.h"
#include "sim/experiments.h"

namespace {

using namespace mmw;

constexpr const char* kUsage =
    "usage: alignment_cli [options]\n"
    "  --channel single|nyc     channel model (default single)\n"
    "  --experiment loss|cost   Figs. 5-6 loss or Figs. 7-8 cost (loss)\n"
    "  --trials N               Monte-Carlo trials (20)\n"
    "  --seed S                 master seed (2016)\n"
    "  --gamma-db G             pre-beamforming SNR gamma, dB (0)\n"
    "  --fades K                fades averaged per measurement (8)\n"
    "  --codebook angular|dft   codebook family (angular)\n"
    "  --slot-j J               measurements per TX slot (Proposed)\n"
    "  --threads T              0 = all cores, 1 = serial; results\n"
    "                           are identical either way\n"
    "  --rates r1,r2,...        search rates (loss experiment)\n"
    "  --targets t1,t2,...      target losses, dB (cost experiment)\n"
    "  --csv                    print CSV instead of a table\n"
    "  --trace PATH             write a Chrome trace JSON\n"
    "                           (chrome://tracing or ui.perfetto.dev)\n"
    "  --metrics PATH           write the merged metrics snapshot JSON\n"
    "  --help                   print this and exit\n";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "error: %s (see --help)\n", message.c_str());
  std::exit(2);
}

std::vector<real> parse_list(const std::string& csv) {
  std::vector<real> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    try {
      out.push_back(std::stod(csv.substr(pos, next - pos)));
    } catch (const std::exception&) {
      usage_error("could not parse number in list: " + csv);
    }
    pos = next + 1;
  }
  if (out.empty()) usage_error("empty list: " + csv);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  sim::Scenario scenario;
  scenario.trials = 20;
  scenario.seed = 2016;
  std::string experiment = "loss";
  std::vector<real> rates{0.02, 0.05, 0.10, 0.20, 0.30};
  std::vector<real> targets{6.0, 4.0, 3.0, 2.0, 1.0};
  core::ProposedOptions proposed_opts;
  bool csv = false;
  std::string trace_path;
  std::string metrics_path;
  obs::init_from_env(/*default_on=*/false);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--channel") {
      const std::string v = value();
      if (v == "single")
        scenario.channel = sim::ChannelKind::kSinglePath;
      else if (v == "nyc")
        scenario.channel = sim::ChannelKind::kNycMultipath;
      else
        usage_error("unknown channel: " + v);
    } else if (arg == "--experiment") {
      experiment = value();
      if (experiment != "loss" && experiment != "cost")
        usage_error("unknown experiment: " + experiment);
    } else if (arg == "--trials") {
      scenario.trials = std::strtoull(value().c_str(), nullptr, 10);
      if (scenario.trials == 0) usage_error("trials must be positive");
    } else if (arg == "--seed") {
      scenario.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--gamma-db") {
      scenario.gamma = std::pow(10.0, std::stod(value()) / 10.0);
    } else if (arg == "--fades") {
      scenario.fades_per_measurement =
          std::strtoull(value().c_str(), nullptr, 10);
      if (scenario.fades_per_measurement == 0)
        usage_error("fades must be positive");
    } else if (arg == "--codebook") {
      const std::string v = value();
      if (v == "angular")
        scenario.codebook = sim::CodebookKind::kAngularGrid;
      else if (v == "dft")
        scenario.codebook = sim::CodebookKind::kDft;
      else
        usage_error("unknown codebook: " + v);
    } else if (arg == "--threads") {
      scenario.threads = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--slot-j") {
      proposed_opts.measurements_per_slot =
          std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--rates") {
      rates = parse_list(value());
    } else if (arg == "--targets") {
      targets = parse_list(value());
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--trace") {
      trace_path = value();
    } else if (arg == "--metrics") {
      metrics_path = value();
    } else {
      usage_error("unknown argument: " + arg);
    }
  }

  if (!trace_path.empty() || !metrics_path.empty()) obs::set_enabled(true);
  if (!trace_path.empty())
    obs::TraceCollector::global().set_capturing(true);

  core::RandomSearch random_search;
  core::ScanSearch scan_search;
  core::ProposedAlignment proposed(proposed_opts);
  const std::vector<const core::AlignmentStrategy*> strategies{
      &random_search, &scan_search, &proposed};

  if (experiment == "loss") {
    const auto res = sim::run_search_effectiveness(scenario, strategies, rates);
    const std::string out =
        csv ? sim::render_csv("search_rate", res.search_rates, res.loss_db)
            : sim::render_table("search_rate", res.search_rates, res.loss_db);
    std::fputs(out.c_str(), stdout);
  } else {
    const auto res = sim::run_cost_efficiency(scenario, strategies, targets);
    const std::string out =
        csv ? sim::render_csv("target_loss_db", res.target_loss_db,
                              res.required_rate)
            : sim::render_table("target_loss_db", res.target_loss_db,
                                res.required_rate);
    std::fputs(out.c_str(), stdout);
  }

  if (!metrics_path.empty() &&
      obs::write_text_file(metrics_path,
                           obs::Registry::global().snapshot().to_json()))
    std::fprintf(stderr, "(metrics written to %s)\n", metrics_path.c_str());
  if (!trace_path.empty() &&
      obs::write_text_file(trace_path,
                           obs::TraceCollector::global().chrome_json()))
    std::fprintf(stderr, "(trace written to %s)\n", trace_path.c_str());
  return 0;
}
