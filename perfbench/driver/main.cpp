// perfbench_driver: runs one workload once and prints its raw measurements
// as one JSON object on stdout. run.py builds and invokes it; see
// perfbench/README.md for the workloads and the metrics derived from this
// output.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//
// Unknown flags, missing values and malformed numbers print the usage and
// exit 2.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/manifest.h"
#include "obs/obs.h"
#include "workloads.h"

namespace {

using perfbench::Options;

constexpr const char* kUsage =
    "usage: perfbench_driver --workload align_multipath|serve_city|"
    "track_mobile --seed N --seconds S --trace 0|1 [--trace-out PATH]\n";

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n%s", why.c_str(), kUsage);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0')
    usage_error(flag + " needs a non-negative integer, got '" + text + "'");
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--trace-out")
      usage_error("unknown flag " + flag);
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0))
        usage_error("--seconds needs a positive number, got '" + value + "'");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        usage_error("--trace takes 0 or 1, got '" + value + "'");
      o.trace = value == "1";
      have_trace = true;
    } else {  // --trace-out
      o.trace_path = value;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage_error("--workload, --seed, --seconds and --trace are required");
  if (o.trace && o.trace_path.empty())
    usage_error("--trace 1 needs --trace-out");
  if (o.workload != "align_multipath" && o.workload != "serve_city" &&
      o.workload != "track_mobile")
    usage_error("unknown workload '" + o.workload + "'");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  // End-to-end passes run with obs off; the traced pass switches it on.
  mmw::obs::set_enabled(false);
  perfbench::Raw raw;
  try {
    if (options.workload == "align_multipath")
      perfbench::run_align(options, raw);
    else if (options.workload == "serve_city")
      perfbench::run_serve(options, raw);
    else
      perfbench::run_track(options, raw);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  raw.scalar("threads", static_cast<double>(perfbench::kThreads));
  raw.scalar("peak_rss_bytes",
             static_cast<double>(mmw::obs::peak_rss_bytes()));
  std::printf("%s\n", raw.to_json().c_str());
  return 0;
}
