// Shared setup for the figure-reproduction benches: the paper's simulation
// configuration (Sec. V-A) and a uniform report format.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "core/thread_pool.h"
#include "linalg/kernels.h"
#include "obs/clock.h"
#include "obs/manifest.h"
#include "obs/trace.h"
#include "sim/experiments.h"

namespace mmw::bench {

/// Strict command line for a bench binary. Every flag is declared up front
/// with its value kind; the shared --threads, --obs and --trace flags (read
/// by threads() and BenchRun) are always declared. The constructor
/// checks the whole argv before the bench does any work:
///
///  - `--help` / `-h` prints the usage and exits 0;
///  - an unknown flag, a stray positional argument, a missing value or a
///    malformed one prints a diagnostic and exits 2.
///
/// Valued flags take `--name value` or `--name=value`; kFlag is bare
/// (`--name`); kOptionalText is bare or `--name=value`. When a flag is
/// repeated the first occurrence wins.
class Cli {
 public:
  enum class Kind {
    kFlag,          ///< bare switch
    kUnsigned,      ///< decimal digits only
    kReal,          ///< one finite real
    kRealList,      ///< comma-separated finite reals
    kText,          ///< any string
    kOptionalText,  ///< bare, or --name=string
  };
  struct Option {
    const char* name;
    Kind kind;
    const char* help;
  };

  Cli(int argc, char** argv, const char* summary, std::vector<Option> options)
      : options_(std::move(options)) {
    options_.push_back({"--threads", Kind::kUnsigned,
                        "worker threads (default: MMW_THREADS, else all)"});
    options_.push_back({"--obs", Kind::kText, "on|off instrumentation"});
    options_.push_back({"--trace", Kind::kOptionalText,
                        "capture spans to a Chrome trace [=path]"});
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::printf("usage: %s [options]\n%s\n\noptions:\n", argv[0],
                    summary);
        for (const Option& o : options_)
          std::printf("  %-16s %s\n", o.name, o.help);
        std::exit(0);
      }
      const std::size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const Option* opt = find(name);
      if (arg.rfind("--", 0) != 0 || opt == nullptr)
        usage_error(argv[0], "unknown argument '" + arg + "'");
      std::string value;
      if (eq != std::string::npos) {
        if (opt->kind == Kind::kFlag)
          usage_error(argv[0], name + " takes no value");
        value = arg.substr(eq + 1);
      } else if (opt->kind != Kind::kFlag &&
                 opt->kind != Kind::kOptionalText) {
        if (i + 1 >= argc) usage_error(argv[0], name + " needs a value");
        value = argv[++i];
      }
      if (!valid(opt->kind, value))
        usage_error(argv[0], "bad value '" + value + "' for " + name);
      values_.emplace(name, value);
    }
  }

  bool has(const char* name) const { return values_.count(name) > 0; }

  /// Worker threads: `--threads N`, else the MMW_THREADS environment
  /// variable, else 0 = auto (all hardware threads). Results are
  /// bit-identical for any value — this only trades wall-clock for cores.
  index_t threads() const {
    if (has("--threads")) return u64("--threads", 0);
    if (const char* env = std::getenv("MMW_THREADS"))
      return std::strtoull(env, nullptr, 10);
    return 0;
  }

  std::uint64_t u64(const char* name, std::uint64_t fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback
                               : std::strtoull(it->second.c_str(), nullptr, 10);
  }

  double real(const char* name, double fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback
                               : std::strtod(it->second.c_str(), nullptr);
  }

  std::vector<mmw::real> reals(const char* name,
                               std::vector<mmw::real> fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::vector<mmw::real> out;
    for (const char* p = it->second.c_str();;) {
      char* end = nullptr;
      out.push_back(std::strtod(p, &end));
      if (*end != ',') break;
      p = end + 1;
    }
    return out;
  }

  /// The flag's value: nullptr when absent, "" when given bare.
  const char* text(const char* name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : it->second.c_str();
  }

 private:
  const Option* find(const std::string& name) const {
    for (const Option& o : options_)
      if (name == o.name) return &o;
    return nullptr;
  }

  [[noreturn]] static void usage_error(const char* prog,
                                       const std::string& what) {
    std::fprintf(stderr, "%s: %s (see --help)\n", prog, what.c_str());
    std::exit(2);
  }

  static bool valid_real(const char* p, const char** rest) {
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(p, &end);
    *rest = end;
    return end != p && errno == 0 && std::isfinite(v);
  }

  static bool valid(Kind kind, const std::string& value) {
    const char* rest = nullptr;
    switch (kind) {
      case Kind::kFlag:
      case Kind::kText:
      case Kind::kOptionalText:
        return true;
      case Kind::kUnsigned:
        if (value.empty() ||
            value.find_first_not_of("0123456789") != std::string::npos)
          return false;
        errno = 0;
        std::strtoull(value.c_str(), nullptr, 10);
        return errno == 0;  // ERANGE past 2^64 − 1
      case Kind::kReal:
        return valid_real(value.c_str(), &rest) && *rest == '\0';
      case Kind::kRealList:
        for (const char* p = value.c_str();; p = rest + 1) {
          if (!valid_real(p, &rest)) return false;
          if (*rest == '\0') return true;
          if (*rest != ',') return false;
        }
    }
    return false;
  }

  std::vector<Option> options_;
  std::map<std::string, std::string> values_;
};

/// The paper's setup: TX 4×4 λ/2 UPA (M = 16), RX 8×8 λ/2 UPA (N = 64),
/// angular-grid codebooks over a ±60°×±30° sector, T = 1024 beam pairs.
inline sim::Scenario paper_scenario(sim::ChannelKind channel,
                                    index_t trials = 25,
                                    std::uint64_t seed = 2016) {
  sim::Scenario sc;
  sc.channel = channel;
  sc.trials = trials;
  sc.seed = seed;
  return sc;
}

/// Search rates matching the span of the paper's Figs. 5–6 x-axes.
inline std::vector<real> paper_search_rates() {
  return {0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.35};
}

/// Target losses matching the span of the paper's Figs. 7–8 x-axes.
inline std::vector<real> paper_target_losses() {
  return {6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.5};
}

inline void print_header(const char* figure, const char* description,
                         index_t threads = 0) {
  std::printf("=== %s: %s ===\n", figure, description);
  std::printf(
      "setup: TX 4x4 UPA (M=16), RX 8x8 UPA (N=64), T=1024 pairs, "
      "gamma=0 dB, 8 fades/measurement, %zu thread(s)\n\n",
      core::resolve_thread_count(threads));
}

/// Writes a CSV artifact under bench_results/ (created on demand) so the
/// figure data can be plotted without re-running the sweep. Failures are
/// reported but non-fatal: the printed table remains the primary output.
inline void write_artifact(const std::string& filename,
                           const std::string& content) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (ec) {
    std::fprintf(stderr, "note: could not create bench_results/: %s\n",
                 ec.message().c_str());
    return;
  }
  const std::string path = "bench_results/" + filename;
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    std::printf("(csv written to %s)\n", path.c_str());
  } else {
    std::fprintf(stderr, "note: could not write %s\n", path.c_str());
  }
}

/// Observability lifecycle shared by every figure/ablation bench: construct
/// at the top of main, call finish() after the sweep.
///
///  - Instrumentation defaults ON for benches (the library default is off),
///    overridable with MMW_OBS=off or `--obs off|on` (CLI wins over env).
///    Both flags are read from the bench's already-validated Cli.
///  - `--trace[=path]` opts into span capture and writes a Chrome trace
///    JSON (chrome://tracing / Perfetto) — default path
///    bench_results/<name>_trace.json.
///  - finish() snapshots the metrics registry into a run manifest
///    (schema mmw.run_manifest/1) written next to the CSV artifact as
///    bench_results/<name>_manifest.json.
class BenchRun {
 public:
  BenchRun(std::string name, const Cli& cli)
      : name_(std::move(name)), manifest_(name_) {
    obs::init_from_env(/*default_on=*/true);
    if (const char* v = cli.text("--obs"))
      obs::set_enabled(!(std::strcmp(v, "off") == 0 ||
                         std::strcmp(v, "0") == 0 ||
                         std::strcmp(v, "false") == 0));
    if (const char* path = cli.text("--trace"))
      trace_path_ = *path != '\0' ? std::string(path)
                                  : "bench_results/" + name_ + "_trace.json";
    // A fresh registry per run: a bench may execute warm-up work before
    // main's sweep in future; today this is a no-op on first use.
    obs::Registry::global().reset();
    if (!trace_path_.empty())
      obs::TraceCollector::global().set_capturing(true);
    // Which scoring-kernel tier this process dispatched to (DESIGN.md §12):
    // recorded up front so even a crashed run's manifest says what ran.
    manifest_.add_config("kernels.dispatch",
                         std::string(linalg::kernels::active_tier_name()));
  }

  /// Adds the scenario's reproducibility-relevant knobs to the manifest.
  void add_scenario(const sim::Scenario& sc) {
    manifest_.add_config("channel", std::string(sc.channel ==
                                                        sim::ChannelKind::kSinglePath
                                                    ? "single_path"
                                                    : "nyc_multipath"));
    manifest_.add_config("trials", static_cast<std::uint64_t>(sc.trials));
    manifest_.add_config("seed", static_cast<std::uint64_t>(sc.seed));
    manifest_.add_config("threads",
                         static_cast<std::uint64_t>(
                             core::resolve_thread_count(sc.threads)));
    manifest_.add_config("gamma", static_cast<double>(sc.gamma));
    manifest_.add_config(
        "fades_per_measurement",
        static_cast<std::uint64_t>(sc.fades_per_measurement));
    manifest_.add_config("total_pairs",
                         static_cast<std::uint64_t>(sc.total_pairs()));
  }

  obs::RunManifest& manifest() { return manifest_; }

  /// Captures wall time + metrics and writes manifest (and trace, if
  /// enabled) under bench_results/.
  void finish() {
    manifest_.set_wall_seconds(timer_.seconds());
    // Top-level health indicators (DESIGN.md §11): solver non-convergence,
    // degradation-ladder fallbacks, and quarantined trials, surfaced so no
    // one has to dig through the metrics snapshot to spot a degraded run.
    const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
    const auto counter = [&](const char* name) -> std::uint64_t {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second.value;
    };
    const std::uint64_t ml_nonconverged =
        counter("estimation.ml.nonconverged");
    const std::uint64_t em_nonconverged =
        counter("estimation.em.nonconverged");
    manifest_.add_health("estimation.ml.nonconverged", ml_nonconverged);
    manifest_.add_health("estimation.em.nonconverged", em_nonconverged);
    manifest_.add_health("estimation.fallback.em",
                         counter("estimation.fallback.em"));
    manifest_.add_health("estimation.fallback.sample",
                         counter("estimation.fallback.sample"));
    manifest_.add_health("estimation.fallback.uniform",
                         counter("estimation.fallback.uniform"));
    manifest_.add_health("estimation.fallback.stressed",
                         counter("estimation.fallback.stressed"));
    manifest_.add_health("sim.trials.quarantined",
                         counter("sim.trials.quarantined"));
    // Peak scoring-scratch footprint across all worker threads: the arena
    // never shrinks during a run, so this is the run's steady-state kernel
    // workspace (bytes, not a rate).
    manifest_.add_config("kernels.arena_high_water_bytes",
                         static_cast<std::uint64_t>(
                             linalg::kernels::arena_high_water_bytes()));
    // Process-wide peak resident set (kernel VmHWM) so every manifest
    // carries a memory high-water mark alongside the arena accounting.
    manifest_.add_config("peak_rss_bytes", obs::peak_rss_bytes());
    if (ml_nonconverged + em_nonconverged > 0)
      std::fprintf(stderr,
                   "warning: %llu covariance solve(s) hit the iteration "
                   "cap without converging (ml=%llu, em=%llu) — see the "
                   "manifest health section\n",
                   static_cast<unsigned long long>(ml_nonconverged +
                                                   em_nonconverged),
                   static_cast<unsigned long long>(ml_nonconverged),
                   static_cast<unsigned long long>(em_nonconverged));
    manifest_.capture_metrics();
    std::error_code ec;
    std::filesystem::create_directories("bench_results", ec);
    const std::string manifest_path =
        "bench_results/" + name_ + "_manifest.json";
    if (obs::write_text_file(manifest_path, manifest_.to_json()))
      std::printf("(manifest written to %s)\n", manifest_path.c_str());
    if (!trace_path_.empty()) {
      obs::TraceCollector& tc = obs::TraceCollector::global();
      if (obs::write_text_file(trace_path_, tc.chrome_json()))
        std::printf("(trace written to %s, %llu events)\n",
                    trace_path_.c_str(),
                    static_cast<unsigned long long>(tc.event_count()));
      tc.set_capturing(false);
      tc.clear();
    }
  }

 private:
  std::string name_;
  obs::RunManifest manifest_;
  obs::WallTimer timer_;
  std::string trace_path_;
};

}  // namespace mmw::bench
