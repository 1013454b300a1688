// Workload align_multipath: the paper's Algorithm 1 at N = 64.
//
// Two client threads run a closed loop: each claims the next op id i and
// runs Rng::stream(seed, i) → sim::make_trial → mac::Session →
// core::ProposedAlignment::run → sim::loss_after, then claims the next.
// Ops claimed before the deadline run to completion, so the completed set
// is always the prefix [0, n) and its outputs are deterministic.
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/strategy.h"
#include "core/thread_pool.h"
#include "sim/evaluation.h"
#include "workloads.h"

namespace perfbench {

using namespace mmw;

namespace {

/// 12% of the T = 1024 beam pairs (the paper's x-axis point).
constexpr index_t kBudget = 123;
/// Losses are graded on ops [0, kQualityOps) so quality metrics do not
/// depend on how many ops a timed window completes.
constexpr std::uint64_t kQualityOps = 720;
/// Ops re-run serially in the untraced run to check thread invariance.
constexpr std::uint64_t kRecheckOps = 4;
/// Warm-up input of the set-up phase; fixed so set-up does the same work
/// for every workload seed.
constexpr std::uint64_t kWarmupSeed = 0x5EED0001;
constexpr int kSetups = 3;

struct OpResult {
  double seconds = 0.0;
  double loss_db = 0.0;
  double measurements = 0.0;
  double tx_beam = 0.0;
  double rx_beam = 0.0;
  bool ok = false;
};

OpResult align_once(const sim::Scenario& sc,
                    const core::ProposedAlignment& strategy,
                    std::uint64_t seed, std::uint64_t i, bool traced) {
  OpResult r;
  const Clock::time_point t0 = Clock::now();
  try {
    BenchSpan op_span(traced, "bench.request", i);
    randgen::Rng rng = randgen::Rng::stream(seed, i);
    std::optional<sim::TrialContext> ctx;
    {
      BenchSpan span(traced, "bench.make_trial", i);
      ctx.emplace(sim::make_trial(sc, rng));
    }
    mac::Session session(ctx->link, ctx->tx_codebook, ctx->rx_codebook,
                         sc.gamma, kBudget, rng, sc.fades_per_measurement);
    {
      BenchSpan span(traced, "bench.align_run", i);
      strategy.run(session);
    }
    BenchSpan span(traced, "bench.grade", i);
    const index_t n = session.records().size();
    if (n == 0) throw std::runtime_error("alignment took no measurements");
    r.loss_db = sim::loss_after(ctx->oracle, session.records(), n);
    const mac::MeasurementRecord best =
        sim::best_in_prefix(session.records(), n);
    r.measurements = static_cast<double>(n);
    r.tx_beam = static_cast<double>(best.tx_beam);
    r.rx_beam = static_cast<double>(best.rx_beam);
    r.ok = std::isfinite(r.loss_db) && r.loss_db >= 0.0 &&
           best.tx_beam < ctx->tx_codebook.size() &&
           best.rx_beam < ctx->rx_codebook.size() && n <= kBudget;
  } catch (const std::exception&) {
    r.ok = false;
  }
  r.seconds = seconds_since(t0);
  return r;
}

/// Results of one closed-loop pass, indexed by op id − first op id.
struct Pass {
  std::vector<OpResult> ops;
  double wall_s = 0.0;
};

/// One closed-loop pass over op ids from `first_op`: pool->thread_count()
/// clients (parallel_for runs one on the calling thread), or the calling
/// thread alone when `pool` is null, loop until `seconds` have passed and
/// the next op id has reached `min_ops`.

Pass closed_loop(core::ThreadPool* pool, const sim::Scenario& sc,
                 const core::ProposedAlignment& strategy, std::uint64_t seed,
                 double seconds, std::uint64_t min_ops, bool traced,
                 std::uint64_t first_op = 0) {
  const index_t clients = pool != nullptr ? pool->thread_count() : 1;
  std::atomic<std::uint64_t> next{first_op};
  std::vector<std::vector<std::pair<std::uint64_t, OpResult>>> done(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&](index_t c) {
    // The clock is read before claiming, so every claimed id runs and the
    // completed ids are exactly [first_op, next).
    while (Clock::now() < deadline || next.load() < min_ops) {
      const std::uint64_t i = next.fetch_add(1);
      done[c].emplace_back(i, align_once(sc, strategy, seed, i, traced));
    }
  };
  if (pool != nullptr)
    pool->parallel_for(0, clients, client);
  else
    client(0);
  Pass pass;
  pass.wall_s = seconds_since(start);
  std::uint64_t n = 0;
  for (const auto& d : done) n += d.size();
  pass.ops.resize(n);
  for (const auto& d : done)
    for (const auto& [i, r] : d) pass.ops.at(i - first_op) = r;
  return pass;
}

std::vector<double> field(const std::vector<OpResult>& ops, std::size_t n,
                          double OpResult::*member) {
  std::vector<double> out;
  for (std::size_t i = 0; i < std::min(n, ops.size()); ++i)
    out.push_back(ops[i].*member);
  return out;
}

/// Checks that two passes produced identical losses and claimed pairs on
/// their common op prefix.
void check_same_outputs(Raw& raw, const Pass& a, const Pass& b,
                        const std::string& what) {
  const std::size_t n = std::min(a.ops.size(), b.ops.size());
  raw.check(same_bytes(field(a.ops, n, &OpResult::loss_db),
                       field(b.ops, n, &OpResult::loss_db)) &&
                same_bytes(field(a.ops, n, &OpResult::tx_beam),
                           field(b.ops, n, &OpResult::tx_beam)) &&
                same_bytes(field(a.ops, n, &OpResult::rx_beam),
                           field(b.ops, n, &OpResult::rx_beam)),
            "align_multipath: loss vector differs, " + what);
}

struct Engine {
  std::unique_ptr<core::ThreadPool> pool;
  core::ProposedAlignment strategy;
};

/// Set-up: the worker pool and the strategy, then one warm-up alignment per
/// worker on a fixed input (lazy statics, scratch arenas, page faults).
Engine set_up(const sim::Scenario& sc) {
  Engine e{std::make_unique<core::ThreadPool>(kThreads),
           core::ProposedAlignment{}};
  e.pool->parallel_for(0, kThreads, [&](index_t c) {
    align_once(sc, e.strategy, kWarmupSeed, c, false);
  });
  return e;
}

void record_pass(Raw& raw, const std::string& prefix, const Pass& pass) {
  raw.scalar(prefix + "ops", static_cast<double>(pass.ops.size()));
  raw.scalar(prefix + "wall_s", pass.wall_s);
}

}  // namespace

sim::Scenario align_scenario(std::uint64_t seed) {
  sim::Scenario sc;
  sc.channel = sim::ChannelKind::kNycMultipath;
  sc.seed = seed;
  sc.threads = kThreads;
  return sc;
}

void run_align(const Options& options, Raw& raw) {
  const sim::Scenario sc = align_scenario(options.seed);
  const std::uint64_t seed = options.seed;

  std::optional<Engine> engine;
  for (int s = 0; s < kSetups; ++s) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    engine.emplace(set_up(sc));
    raw.push("setup_s", seconds_since(t0));
  }
  core::ThreadPool* pool = engine->pool.get();

  if (!options.trace) {
    const Pass pass = closed_loop(pool, sc, engine->strategy, seed,
                                  options.seconds, 0, false);
    record_pass(raw, "", pass);
    for (const OpResult& r : pass.ops) {
      raw.op(!r.ok);
      raw.push("request_s", r.seconds);
      raw.push("probes_per_op", r.measurements);
    }
    // Quality is graded on a fixed op prefix; finish it untimed if the
    // window was short.
    std::vector<double> loss = field(pass.ops, kQualityOps, &OpResult::loss_db);
    if (loss.size() < kQualityOps) {
      const Pass rest = closed_loop(pool, sc, engine->strategy, seed, 0.0,
                                    kQualityOps, false, loss.size());
      for (const OpResult& r : rest.ops) {
        raw.op(!r.ok);
        loss.push_back(r.loss_db);
      }
      loss.resize(kQualityOps);  // both clients may claim past the end
    }
    raw.series("loss_db") = std::move(loss);
    const Pass serial = closed_loop(nullptr, sc, engine->strategy, seed, 0.0,
                                    kRecheckOps, false);
    for (const OpResult& r : serial.ops) raw.op(!r.ok);
    check_same_outputs(raw, pass, serial, "2 threads vs 1 thread");
    return;
  }

  // Traced run: an untraced and a traced window at 2 threads, then a
  // 1-thread window for the scaling ratio; all three must agree.
  const double window = traced_window(options);
  const Pass untraced =
      closed_loop(pool, sc, engine->strategy, seed, window, 0, false);
  set_traced(true);
  const Pass traced =
      closed_loop(pool, sc, engine->strategy, seed, window, 0, true);
  raw.set_counters_json(finish_traced_pass(options.trace_path));
  const Pass serial =
      closed_loop(nullptr, sc, engine->strategy, seed, window, 0, false);
  record_pass(raw, "untraced_", untraced);
  record_pass(raw, "traced_", traced);
  record_pass(raw, "single_", serial);
  for (const Pass* p : {&untraced, &traced, &serial})
    for (const OpResult& r : p->ops) raw.op(!r.ok);
  check_same_outputs(raw, untraced, traced, "untraced vs traced");
  check_same_outputs(raw, untraced, serial, "2 threads vs 1 thread");
  run_layer_probes(sc, seed, raw);
}

}  // namespace perfbench
