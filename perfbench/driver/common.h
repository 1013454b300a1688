// Shared plumbing of the benchmark driver: run options, the raw report the
// driver hands to run.py, bench-side spans, and the probe timer.
//
// The driver only MEASURES. It calls the library's public entry points,
// times them with steady_clock, and records raw samples (latencies, counts,
// per-probe costs, output checks). run.py reduces them to the named metrics
// of BENCHMARK.json, so percentile rules and metric definitions live in one
// tested place.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Where the traced pass writes its Chrome trace JSON ("" = not traced).
  std::string trace_path;
};

/// Length of each window of the traced run (an untraced, a traced and a
/// 1-thread window). Capped because the ML solver emits a trace counter per
/// iteration, so a traced align_multipath second is ~8 MB of trace.
inline double traced_window(const Options& o) {
  return std::min(o.seconds / 4.0, 4.0);
}

/// Everything one driver run measured, rendered as one JSON object.
class Raw {
 public:
  void scalar(const std::string& name, double value) { scalars_[name] = value; }
  void push(const std::string& series, double value) {
    series_[series].push_back(value);
  }
  std::vector<double>& series(const std::string& name) { return series_[name]; }

  /// Records one output check; a failed check is reported with `what`.
  void check(bool ok, const std::string& what);
  /// Counts one workload operation and whether it failed.
  void op(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }

  /// Splices an obs::Registry snapshot (already JSON) under "counters".
  void set_counters_json(std::string json) { counters_json_ = std::move(json); }

  std::string to_json() const;

 private:
  std::map<std::string, double> scalars_;
  std::map<std::string, std::vector<double>> series_;
  std::uint64_t checks_run_ = 0;
  std::vector<std::string> check_failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string counters_json_;
};

/// A bench-side span around one call into a library layer, carrying the op
/// id. Inert (not even constructed) outside the traced pass, so untraced
/// passes time the library alone.
class BenchSpan {
 public:
  BenchSpan(bool traced, const char* name, std::uint64_t op) {
    if (!traced) return;
    scope_.emplace(name, "bench");
    scope_->arg("op", static_cast<double>(op));
  }

 private:
  std::optional<mmw::obs::TraceScope> scope_;
};

/// Switches obs recording and trace capture together. Turning it on also
/// clears previously captured metrics and spans.
void set_traced(bool on);

/// Writes the captured trace to `path` and returns the merged counter
/// snapshot as JSON.
std::string finish_traced_pass(const std::string& path);

/// SplitMix64 finalization of seed + k·golden-gamma: a per-request seed
/// derived from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

/// True when both vectors hold the same doubles bit for bit.
bool same_bytes(const std::vector<double>& a, const std::vector<double>& b);

namespace detail {
/// Keeps probe results observable so the timed calls are not elided.
inline std::atomic<double> probe_sink{0.0};
}  // namespace detail

/// Per-call cost of `fn` in seconds: calibrates a batch size so one batch
/// takes ~`batch_seconds`, runs `batches` batches and returns the median
/// batch mean. `fn` must return a value that depends on its work; the sum
/// is kept alive so the calls cannot be optimized away.
template <class F>
double per_call_seconds(F&& fn, double batch_seconds = 0.02, int batches = 7) {
  double sink = 0.0;
  // Calibrate: double the batch until it takes a quarter of the target.
  std::uint64_t n = 1;
  for (;;) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) sink += static_cast<double>(fn());
    const double dt = seconds_since(t0);
    if (dt >= batch_seconds / 4.0 || n >= (1ULL << 30)) {
      const double per = dt / static_cast<double>(n);
      n = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(batch_seconds / std::max(per, 1e-12)));
      break;
    }
    n *= 2;
  }
  std::vector<double> per_call;
  per_call.reserve(static_cast<std::size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < n; ++i) sink += static_cast<double>(fn());
    per_call.push_back(seconds_since(t0) / static_cast<double>(n));
  }
  detail::probe_sink.store(sink, std::memory_order_relaxed);
  std::nth_element(per_call.begin(), per_call.begin() + batches / 2,
                   per_call.end());
  return per_call[static_cast<std::size_t>(batches / 2)];
}

}  // namespace perfbench
