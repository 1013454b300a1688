// Workload serve_city: the E9 serving engine at ~30k resident sessions with
// 5% churn per epoch. One client (the calling thread) drives
// ServingEngine::step_epoch() back to back; the engine spreads each tick
// over its own 2-thread pool. Each tick is one request.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "serve/serve.h"
#include "workloads.h"

namespace perfbench {

using namespace mmw;

namespace {

constexpr index_t kSessions = 30000;
constexpr index_t kSites = 64;
/// Arrivals per site per epoch as a share of the per-site population; with
/// a mean sojourn of 20 epochs departures balance them at kSessions.
constexpr double kChurn = 0.05;
constexpr double kSojournEpochs = 20.0;
/// Quality and probe cost are graded on ticks [kQualityFirst,
/// kQualityFirst + kQualityTicks): past the initial alignment phase and
/// independent of how many ticks a timed window completes.
constexpr std::size_t kQualityFirst = 4;
constexpr std::size_t kQualityTicks = 16;
/// Ticks re-run on a 1-thread engine in the untraced run.
constexpr std::size_t kRecheckTicks = 2;
/// Minimum ticks of the traced run's 1-thread window: past the initial
/// all-aligning ticks, so the scaling ratio also covers steady ticks.
constexpr std::size_t kSerialTicks = 8;
constexpr int kSetups = 3;

serve::ServeConfig config(std::uint64_t seed, index_t threads) {
  serve::ServeConfig cfg;
  sim::Scenario& sc = cfg.scenario;
  sc.channel = sim::ChannelKind::kSinglePath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.fades_per_measurement = 4;
  sc.gamma = 1000.0;  // 30 dB
  sc.seed = seed;
  sc.threads = threads;
  cfg.topology.cells = kSites;
  cfg.topology.cell_radius_m = 100.0;
  cfg.initial_sessions = kSessions;
  const double per_site =
      static_cast<double>(kSessions) / static_cast<double>(kSites);
  cfg.arrival_rate = kChurn * per_site;
  cfg.mean_sojourn_epochs = kSojournEpochs;
  cfg.align_epochs = 4;
  cfg.probes_per_slot = 8;
  cfg.track_fades = 4;
  cfg.estimator = serve::EstimatorKind::kBeamSpace;
  cfg.session_block =
      std::clamp<index_t>(static_cast<index_t>(per_site) + 1, 256, 4096);
  return cfg;
}

/// A started engine: constructed and through its first (admission) tick.
struct Started {
  std::unique_ptr<serve::ServingEngine> engine;
  std::vector<serve::EpochReport> reports;
  double first_tick_s = 0.0;
};

Started start(std::uint64_t seed, index_t threads) {
  Started s;
  s.engine = std::make_unique<serve::ServingEngine>(config(seed, threads));
  const Clock::time_point t0 = Clock::now();
  s.reports.push_back(s.engine->step_epoch());
  s.first_tick_s = seconds_since(t0);
  return s;
}

bool report_ok(const serve::EpochReport& r) {
  auto good = [](real v) { return std::isfinite(v) && v >= 0.0; };
  return r.live_sessions > 0 && good(r.mean_loss_db) && good(r.p50_loss_db) &&
         good(r.p90_loss_db) && good(r.p99_loss_db) && good(r.max_loss_db);
}

/// Steps `s` for `seconds` (then, untimed, at least until it holds
/// `min_reports` reports), recording each timed tick's latency and live
/// session count under `prefix`. Returns the wall time of the timed ticks.
double run_ticks(Started& s, double seconds, std::size_t min_reports,
                 bool traced, Raw& raw, const std::string& prefix) {
  const Clock::time_point start = Clock::now();
  double timed = 0.0;
  while (seconds_since(start) < seconds) {
    const std::uint64_t tick = s.reports.size();
    const Clock::time_point t0 = Clock::now();
    {
      BenchSpan request(traced, "bench.request", tick);
      BenchSpan span(traced, "bench.step_epoch", tick);
      s.reports.push_back(s.engine->step_epoch());
    }
    const double dt = seconds_since(t0);
    timed += dt;
    raw.push(prefix + "request_s", dt);
    raw.push(prefix + "tick_live",
             static_cast<double>(s.reports.back().live_sessions));
  }
  while (s.reports.size() < min_reports)
    s.reports.push_back(s.engine->step_epoch());
  for (const serve::EpochReport& r : s.reports) raw.op(!report_ok(r));
  return timed;
}

/// Every live session's claimed pair must index the codebooks.
void check_claims(Raw& raw, const serve::ServingEngine& engine) {
  const sim::Scenario& sc = engine.config().scenario;
  const index_t tx = sc.tx_grid_x * sc.tx_grid_y;
  const index_t rx = sc.rx_grid_x * sc.rx_grid_y;
  std::uint64_t bad = 0;
  engine.for_each_session([&](index_t, const serve::UserSession& u) {
    if (u.tx_beam >= tx || u.rx_beam >= rx) ++bad;
  });
  raw.check(bad == 0, "serve_city: claimed pair out of codebook range");
}

std::string csv_prefix(const std::vector<serve::EpochReport>& reports,
                       std::size_t n) {
  return serve::render_serving_csv(std::vector<serve::EpochReport>(
      reports.begin(),
      reports.begin() + static_cast<std::ptrdiff_t>(std::min(n, reports.size()))));
}

void check_same_csv(Raw& raw, const Started& a, const Started& b,
                    const std::string& what) {
  const std::size_t n = std::min(a.reports.size(), b.reports.size());
  raw.check(csv_prefix(a.reports, n) == csv_prefix(b.reports, n),
            "serve_city: serving CSV differs, " + what);
}

/// Per-tick engine outputs over [first, first + count) as series.
void record_ticks(Raw& raw, const std::string& prefix,
                  const std::vector<serve::EpochReport>& reports,
                  std::size_t first, std::size_t count) {
  const std::size_t end = std::min(reports.size(), first + count);
  for (std::size_t i = first; i < end; ++i) {
    const serve::EpochReport& r = reports[i];
    raw.push(prefix + "live", static_cast<double>(r.live_sessions));
    raw.push(prefix + "arrivals", static_cast<double>(r.arrivals));
    raw.push(prefix + "aligning", static_cast<double>(r.aligning_steps));
    raw.push(prefix + "probes", static_cast<double>(r.measurement_slots));
    raw.push(prefix + "tracking", static_cast<double>(r.tracking_steps));
    raw.push(prefix + "outages", static_cast<double>(r.outages));
    raw.push(prefix + "loss_samples", static_cast<double>(r.loss_samples));
    raw.push(prefix + "mean_loss_db", r.mean_loss_db);
    raw.push(prefix + "p90_loss_db", r.p90_loss_db);
  }
}

void record_memory(Raw& raw, const serve::ServingEngine& engine) {
  raw.scalar("serve_high_water_bytes",
             static_cast<double>(engine.high_water_bytes()));
  raw.scalar("serve_peak_live",
             static_cast<double>(engine.peak_live_sessions()));
}

}  // namespace

void run_serve(const Options& options, Raw& raw) {
  const std::uint64_t seed = options.seed;
  std::optional<Started> main;
  for (int s = 0; s < kSetups; ++s) {
    main.reset();
    const Clock::time_point t0 = Clock::now();
    main.emplace(start(seed, kThreads));
    raw.push("setup_s", seconds_since(t0));
    raw.push("first_tick_s", main->first_tick_s);
  }

  if (!options.trace) {
    const double wall = run_ticks(*main, options.seconds,
                                  kQualityFirst + kQualityTicks, false, raw, "");
    raw.scalar("wall_s", wall);
    record_ticks(raw, "q_", main->reports, kQualityFirst, kQualityTicks);
    record_memory(raw, *main->engine);
    check_claims(raw, *main->engine);
    Started serial = start(seed, 1);
    run_ticks(serial, 0.0, kRecheckTicks, false, raw, "single_");
    check_same_csv(raw, *main, serial, "2 threads vs 1 thread");
    return;
  }

  // Traced run: the set-up engine steps an untraced window, a fresh engine
  // a traced one and a fresh 1-thread engine a window of at least
  // kSerialTicks ticks; all start at tick 1, so run.py compares them over
  // their common ticks.
  const double window = traced_window(options);
  raw.scalar("untraced_wall_s",
             run_ticks(*main, window, 0, false, raw, "untraced_"));
  Started traced = start(seed, kThreads);
  set_traced(true);
  raw.scalar("traced_wall_s",
             run_ticks(traced, window, 0, true, raw, "traced_"));
  raw.set_counters_json(finish_traced_pass(options.trace_path));
  record_ticks(raw, "t_", traced.reports, 1, traced.reports.size() - 1);
  record_memory(raw, *traced.engine);
  Started serial = start(seed, 1);
  run_ticks(serial, window, kSerialTicks, false, raw, "single_");
  check_claims(raw, *traced.engine);
  check_same_csv(raw, *main, traced, "untraced vs traced");
  check_same_csv(raw, *main, serial, "2 threads vs 1 thread");
  run_layer_probes(config(seed, kThreads).scenario, seed, raw);
}

}  // namespace perfbench
