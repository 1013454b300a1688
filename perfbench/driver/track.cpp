// Workload track_mobile: the E10 tracking engine at vehicle speed with all
// four trackers. One client (the calling thread) issues requests back to
// back; request r tracks kUsers mobile users for kEpochs epochs with every
// tracker (track::run_tracking over a 2-thread pool), on its own scenario
// seed derived from (workload seed, r).
#include <cmath>

#include "track/engine.h"
#include "workloads.h"

namespace perfbench {

using namespace mmw;

namespace {

constexpr index_t kUsers = 2;
constexpr index_t kEpochs = 80;
constexpr index_t kWarmup = 20;
constexpr real kSpeedMps = 13.9;
/// Quality metrics are graded on requests [0, kQualityRequests).
constexpr std::uint64_t kQualityRequests = 120;
/// Requests re-run on 1 thread in the untraced run.
constexpr std::uint64_t kRecheckRequests = 2;
/// Fixed input of the set-up warm-up request.
constexpr std::uint64_t kWarmupSeed = 0x5EED0003;
constexpr int kSetups = 3;
/// Minimum timing window per tracker kind in the traced run.
constexpr double kPerKindSeconds = 0.25;

const std::vector<track::TrackerKind> kKinds{
    track::TrackerKind::kColdStart, track::TrackerKind::kWarmMl,
    track::TrackerKind::kNeighborhood, track::TrackerKind::kBanditUcb};

track::TrackingConfig config(std::uint64_t request_seed, index_t threads) {
  track::TrackingConfig cfg;
  cfg.scenario = track_scenario(request_seed);
  cfg.scenario.threads = threads;
  cfg.topology.cells = 7;
  cfg.topology.cell_radius_m = 100.0;
  cfg.users = kUsers;
  cfg.epochs = kEpochs;
  cfg.warmup_epochs = kWarmup;
  cfg.mobility.speed_mps = kSpeedMps;
  cfg.mobility.epoch_seconds = 0.5;
  cfg.mobility.hysteresis_db = 3.0;
  cfg.evolution.drift_rad_per_meter = 0.004;
  cfg.evolution.shadow_sigma_db = 2.0;
  cfg.evolution.shadow_coherence_m = 15.0;
  cfg.evolution.blockage_onset_per_meter = 0.002;
  cfg.evolution.blockage_clear_probability = 0.25;
  cfg.evolution.blockage_gain = 0.02;
  return cfg;
}

bool result_ok(const track::TrackingResult& r) {
  auto good = [](real v) { return std::isfinite(v) && v >= 0.0; };
  bool ok = r.trackers.size() == kKinds.size() &&
            good(r.handovers_per_user);
  for (const track::TrackerCaseResult& t : r.trackers)
    ok = ok && t.steady_epochs == kUsers * (kEpochs - kWarmup) &&
         good(t.mean_loss_db) && good(t.p90_loss_db) &&
         good(t.p99_loss_db) && good(t.probes_per_epoch) &&
         good(t.realign_rate);
  return ok;
}

struct Pass {
  std::vector<track::TrackingResult> results;
  double wall_s = 0.0;
};

/// Closed loop of requests 0, 1, … for `seconds`, then untimed at least
/// until `min_requests` completed. Timed latencies go to `prefix` +
/// "request_s"; the timed requests are the first `timed_ops`.
Pass closed_loop(std::uint64_t seed, index_t threads, double seconds,
                 std::uint64_t min_requests, bool traced, Raw& raw,
                 const std::string& prefix) {
  Pass pass;
  std::uint64_t timed_ops = 0;
  const Clock::time_point start = Clock::now();
  for (;;) {
    const bool timed = seconds_since(start) < seconds;
    if (!timed && pass.results.size() >= min_requests) break;
    if (!timed && timed_ops == pass.results.size())
      pass.wall_s = seconds_since(start);
    const std::uint64_t r = pass.results.size();
    const Clock::time_point t0 = Clock::now();
    bool ok = false;
    try {
      BenchSpan request(traced, "bench.request", r);
      BenchSpan span(traced, "bench.run_tracking", r);
      pass.results.push_back(
          track::run_tracking(config(derive_seed(seed, r), threads), kKinds));
      ok = result_ok(pass.results.back());
    } catch (const std::exception&) {
      pass.results.emplace_back();
    }
    raw.op(!ok);
    if (timed) {
      raw.push(prefix + "request_s", seconds_since(t0));
      ++timed_ops;
    }
  }
  if (timed_ops == pass.results.size()) pass.wall_s = seconds_since(start);
  raw.scalar(prefix + "ops", static_cast<double>(timed_ops));
  raw.scalar(prefix + "wall_s", pass.wall_s);
  raw.scalar(prefix + "user_epochs",
             static_cast<double>(timed_ops * kKinds.size() * kUsers * kEpochs));
  return pass;
}

std::string csv_prefix(const Pass& pass, std::size_t n) {
  std::vector<real> xs;
  std::vector<track::TrackingResult> rs;
  for (std::size_t i = 0; i < std::min(n, pass.results.size()); ++i) {
    xs.push_back(static_cast<real>(i));
    rs.push_back(pass.results[i]);
  }
  return track::render_tracking_csv("request", xs, rs);
}

void check_same_csv(Raw& raw, const Pass& a, const Pass& b,
                    const std::string& what) {
  const std::size_t n = std::min(a.results.size(), b.results.size());
  raw.check(csv_prefix(a, n) == csv_prefix(b, n),
            "track_mobile: tracking CSV differs, " + what);
}

/// Per-(request, tracker) outcomes of requests [0, count) as series.
void record_results(Raw& raw, const std::string& prefix, const Pass& pass,
                    std::size_t count) {
  for (std::size_t i = 0; i < std::min(count, pass.results.size()); ++i) {
    const track::TrackingResult& r = pass.results[i];
    raw.push(prefix + "handovers_per_user", r.handovers_per_user);
    for (std::size_t k = 0; k < r.trackers.size(); ++k) {
      const track::TrackerCaseResult& t = r.trackers[k];
      raw.push(prefix + "kind", static_cast<double>(k));
      raw.push(prefix + "steady_epochs", static_cast<double>(t.steady_epochs));
      raw.push(prefix + "mean_loss_db", t.mean_loss_db);
      raw.push(prefix + "p90_loss_db", t.p90_loss_db);
      raw.push(prefix + "probes_per_epoch", t.probes_per_epoch);
      raw.push(prefix + "realign_rate", t.realign_rate);
    }
  }
}

/// Seconds per call of one tracker kind alone on request 0's input.
double per_kind_seconds(std::uint64_t seed, track::TrackerKind kind,
                        index_t threads) {
  const track::TrackingConfig cfg = config(derive_seed(seed, 0), threads);
  std::vector<double> calls;
  const Clock::time_point start = Clock::now();
  while (calls.size() < 3 || seconds_since(start) < kPerKindSeconds) {
    const Clock::time_point t0 = Clock::now();
    track::run_tracking(cfg, {kind});
    calls.push_back(seconds_since(t0));
  }
  std::nth_element(calls.begin(), calls.begin() + calls.size() / 2,
                   calls.end());
  return calls[calls.size() / 2];
}

}  // namespace

sim::Scenario track_scenario(std::uint64_t seed) {
  sim::Scenario sc;
  sc.channel = sim::ChannelKind::kNycMultipath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.fades_per_measurement = 4;
  sc.gamma = 1000.0;  // 30 dB at the reference distance
  sc.seed = seed;
  sc.threads = kThreads;
  return sc;
}

void run_track(const Options& options, Raw& raw) {
  const std::uint64_t seed = options.seed;
  raw.scalar("track_users", kUsers);
  raw.scalar("track_epochs", kEpochs);
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point t0 = Clock::now();
    track::run_tracking(config(kWarmupSeed, kThreads), kKinds);
    raw.push("setup_s", seconds_since(t0));
  }

  if (!options.trace) {
    const Pass pass =
        closed_loop(seed, kThreads, options.seconds, kQualityRequests, false,
                    raw, "");
    record_results(raw, "q_", pass, kQualityRequests);
    const Pass serial =
        closed_loop(seed, 1, 0.0, kRecheckRequests, false, raw, "single_");
    check_same_csv(raw, pass, serial, "2 threads vs 1 thread");
    return;
  }

  // Traced run: untraced, traced and 1-thread windows over the same
  // request sequence, then each tracker kind alone at 2 and 1 threads.
  const double window = traced_window(options);
  const Pass untraced =
      closed_loop(seed, kThreads, window, 0, false, raw, "untraced_");
  set_traced(true);
  const Pass traced =
      closed_loop(seed, kThreads, window, 0, true, raw, "traced_");
  raw.set_counters_json(finish_traced_pass(options.trace_path));
  const Pass serial = closed_loop(seed, 1, window, 0, false, raw, "single_");
  record_results(raw, "t_", traced, traced.results.size());
  check_same_csv(raw, untraced, traced, "untraced vs traced");
  check_same_csv(raw, untraced, serial, "2 threads vs 1 thread");
  for (const track::TrackerKind kind : kKinds) {
    const std::string name = track::tracker_name(kind);
    raw.scalar("kind_s_2t." + name, per_kind_seconds(seed, kind, kThreads));
    raw.scalar("kind_s_1t." + name, per_kind_seconds(seed, kind, 1));
  }
  run_layer_probes(track_scenario(seed), seed, raw);
}

}  // namespace perfbench
