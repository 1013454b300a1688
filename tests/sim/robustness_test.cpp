// Quarantine + fault-robustness determinism: a trial or shard that throws
// under faults.quarantine_trials must be excluded IDENTICALLY at every
// thread count by every Monte-Carlo driver (fig5–8, E7, E8), the flight
// recorder must snapshot it at every thread count, and the E8 robustness
// matrix must render byte-identical CSVs serial and parallel. See
// DESIGN.md §11.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/obs.h"
#include "sim/experiments.h"
#include "sim/multicell.h"
#include "sim/robustness.h"

namespace mmw::sim {
namespace {

Scenario tiny_scenario(index_t threads) {
  Scenario sc;
  sc.channel = ChannelKind::kSinglePath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.trials = 10;
  sc.seed = 20160401;
  sc.threads = threads;
  return sc;
}

/// Measures the full pair grid in raster order, but throws convergence_error
/// when the first training slot was dropped by the fault plan. The throw is
/// a pure function of (seed, trial) — the same trials fail at every thread
/// count — which is exactly the property the quarantine tests pin down.
class DropSensitiveSearch final : public core::AlignmentStrategy {
 public:
  std::string_view name() const override { return "DropSensitive"; }
  void run(mac::Session& session) const override {
    for (index_t t = 0;
         t < session.tx_codebook().size() && !session.exhausted(); ++t)
      for (index_t r = 0;
           r < session.rx_codebook().size() && !session.exhausted(); ++r) {
        session.measure(t, r);
        if (session.records().size() == 1 &&
            session.records().front().energy == 0.0)
          throw convergence_error("first training slot dropped");
      }
  }
};

/// Always throws before measuring anything.
class AlwaysThrowSearch final : public core::AlignmentStrategy {
 public:
  std::string_view name() const override { return "AlwaysThrow"; }
  void run(mac::Session&) const override {
    throw convergence_error("always fails");
  }
};

/// What the quarantine tests compare across thread counts for one run of a
/// fig driver: the excluded trials, the summaries and their CSV bytes.
struct QuarantinedSweep {
  std::vector<index_t> quarantined;
  std::map<std::string, std::vector<Summary>> series;
  std::string csv;
};

TEST(QuarantineTest, FailedTrialsExcludedIdenticallyAcrossThreadCounts) {
  DropSensitiveSearch fragile;
  core::ScanSearch scan;
  const std::vector<const core::AlignmentStrategy*> strategies{&fragile,
                                                               &scan};
  const auto scenario = [](index_t threads) {
    Scenario sc = tiny_scenario(threads);
    sc.faults.drop_probability = 0.4;
    sc.faults.quarantine_trials = true;
    return sc;
  };
  // One input per driver family: fig5–6 and fig7–8.
  const std::vector<std::function<QuarantinedSweep(index_t)>> drivers{
      [&](index_t threads) {
        const EffectivenessResult r = run_search_effectiveness(
            scenario(threads), strategies, {0.25, 0.75});
        return QuarantinedSweep{
            r.quarantined_trials, r.loss_db,
            render_csv("search_rate", r.search_rates, r.loss_db)};
      },
      [&](index_t threads) {
        const CostEfficiencyResult r =
            run_cost_efficiency(scenario(threads), strategies, {3.0, 1.0});
        return QuarantinedSweep{
            r.quarantined_trials, r.required_rate,
            render_csv("target_loss_db", r.target_loss_db, r.required_rate)};
      },
  };
  for (const auto& run : drivers) {
    const QuarantinedSweep serial = run(1);
    // The drop coin lands heads for SOME first slots but not all: the
    // quarantine set is non-empty and non-total (a seed-dependent fact this
    // test pins; if the seed changes, pick one with a mixed outcome).
    ASSERT_FALSE(serial.quarantined.empty());
    ASSERT_LT(serial.quarantined.size(), tiny_scenario(1).trials);
    for (const auto& [name, summaries] : serial.series)
      for (const Summary& s : summaries)
        EXPECT_EQ(s.count,
                  tiny_scenario(1).trials - serial.quarantined.size())
            << name;

    for (const index_t threads : {index_t{2}, index_t{8}}) {
      const QuarantinedSweep parallel = run(threads);
      EXPECT_EQ(serial.quarantined, parallel.quarantined);
      EXPECT_EQ(serial.csv, parallel.csv);
    }
  }
}

TEST(QuarantineTest, SerialQuarantineDumpsFlightRecorderOnce) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mmw_sim_flight_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.set_dump_directory(dir.string());
  const std::uint64_t dumps_before = recorder.dump_count();

  DropSensitiveSearch fragile;
  Scenario sc = tiny_scenario(1);
  sc.faults.drop_probability = 0.4;
  sc.faults.quarantine_trials = true;
  const EffectivenessResult failed =
      run_search_effectiveness(sc, {&fragile}, {0.5});
  ASSERT_GT(failed.quarantined_trials.size(), 1u);
  // One dump per quarantining run, not one per quarantined trial.
  EXPECT_EQ(recorder.dump_count(), dumps_before + 1);
  index_t files = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().find("quarantined_iteration") !=
        std::string::npos)
      ++files;
  EXPECT_EQ(files, 1u);

  // A clean run under the same quarantine knob must not dump.
  sc.faults.drop_probability = 0.0;
  const EffectivenessResult clean =
      run_search_effectiveness(sc, {&fragile}, {0.5});
  EXPECT_TRUE(clean.quarantined_trials.empty());
  EXPECT_EQ(recorder.dump_count(), dumps_before + 1);

  recorder.set_dump_directory("bench_results");
  obs::set_enabled(was_enabled);
  fs::remove_all(dir);
}

TEST(QuarantineTest, MulticellShardsExcludedIdenticallyAcrossThreadCounts) {
  DropSensitiveSearch fragile;
  core::ScanSearch scan;
  auto run = [&](index_t threads) {
    MultiCellConfig config;
    config.topology.cells = 3;
    config.topology.users_per_cell = 2;
    config.scenario = tiny_scenario(threads);
    config.scenario.trials = 4;
    config.scenario.faults.drop_probability = 0.2;
    config.scenario.faults.quarantine_trials = true;
    return run_multicell(config, {&fragile, &scan});
  };
  const index_t n_shards = 3 * 4;
  const MultiCellResult serial = run(1);
  ASSERT_FALSE(serial.quarantined_shards.empty());
  ASSERT_LT(serial.quarantined_shards.size(), n_shards);
  EXPECT_EQ(serial.sessions_per_strategy,
            (n_shards - serial.quarantined_shards.size()) * 2);
  const std::string csv = render_multicell_csv("cells", {3}, {serial});

  for (const index_t threads : {index_t{2}, index_t{8}}) {
    const MultiCellResult parallel = run(threads);
    EXPECT_EQ(serial.quarantined_shards, parallel.quarantined_shards);
    EXPECT_EQ(serial.sessions_per_strategy, parallel.sessions_per_strategy);
    EXPECT_EQ(csv, render_multicell_csv("cells", {3}, {parallel}));
  }
}

TEST(QuarantineTest, WithoutQuarantineTheSameFailurePropagates) {
  const std::vector<real> rates{0.5};
  DropSensitiveSearch fragile;
  Scenario sc = tiny_scenario(3);
  sc.faults.drop_probability = 0.4;  // same drops, but no quarantine
  EXPECT_THROW(run_search_effectiveness(sc, {&fragile}, rates),
               convergence_error);
}

TEST(QuarantineTest, AllTrialsFailingIsAnError) {
  AlwaysThrowSearch bad;
  Scenario sc = tiny_scenario(2);
  sc.trials = 3;
  sc.faults.quarantine_trials = true;
  EXPECT_THROW(run_search_effectiveness(sc, {&bad}, {0.5}),
               precondition_error);
}

TEST(RobustnessMatrixTest, CsvByteIdenticalAcrossThreadCounts) {
  core::RandomSearch rnd;
  core::ScanSearch scan;
  const std::vector<const core::AlignmentStrategy*> strategies{&rnd, &scan};

  std::vector<FaultCase> cases(3);
  cases[0].name = "clean";
  cases[1].name = "drops";
  cases[1].faults.drop_probability = 0.2;
  cases[2].name = "blockage";
  cases[2].faults.blockage_probability = 1.0;
  cases[2].faults.blockage_attenuation_db = 25.0;

  auto run = [&](index_t threads) {
    RobustnessConfig config;
    config.scenario = tiny_scenario(threads);
    config.scenario.trials = 6;
    config.budget_rate = 0.25;
    return run_fault_robustness(config, strategies, cases);
  };
  const auto serial = run(1);
  ASSERT_EQ(serial.size(), 3u);
  const std::string csv = render_robustness_csv(serial);
  EXPECT_EQ(csv, render_robustness_csv(run(3)));

  // A static link with no faults cannot collapse post-training: the clean
  // column must report zero outages and spend exactly one verify slot.
  for (const auto& [name, r] : serial[0].by_strategy) {
    EXPECT_EQ(r.outage_rate, 0.0) << name;
    EXPECT_EQ(r.recovery_slots.mean, 1.0) << name;
    EXPECT_EQ(r.trials, 6u) << name;
  }
  EXPECT_EQ(serial[0].quarantined, 0u);
  // A guaranteed 25 dB blockage makes the verified energy collapse against
  // a clean-slot trained best whenever the onset lands late in training, so
  // across strategies the re-alignment machinery must engage: outages
  // declared, extra recovery slots spent beyond the single verify probe.
  // (Whether a SPECIFIC strategy hits a late onset is seed luck, so the
  // assertion aggregates.)
  real blockage_outages = 0.0, blockage_slots = 0.0, clean_slots = 0.0;
  for (const auto& [name, r] : serial[2].by_strategy) {
    blockage_outages += r.outage_rate;
    blockage_slots += r.recovery_slots.mean;
  }
  for (const auto& [name, r] : serial[0].by_strategy)
    clean_slots += r.recovery_slots.mean;
  EXPECT_GT(blockage_outages, 0.0);
  EXPECT_GT(blockage_slots, clean_slots);
}

TEST(RobustnessMatrixTest, QuarantinedCountsIdenticalAcrossThreadCounts) {
  DropSensitiveSearch fragile;
  core::ScanSearch scan;
  std::vector<FaultCase> cases(2);
  cases[0].name = "clean";
  cases[0].faults.quarantine_trials = true;
  cases[1].name = "drops";
  cases[1].faults.drop_probability = 0.4;
  cases[1].faults.quarantine_trials = true;

  auto run = [&](index_t threads) {
    RobustnessConfig config;
    config.scenario = tiny_scenario(threads);
    config.budget_rate = 0.25;
    return run_fault_robustness(config, {&fragile, &scan}, cases);
  };
  const auto serial = run(1);
  ASSERT_EQ(serial.size(), 2u);
  EXPECT_EQ(serial[0].quarantined, 0u);
  ASSERT_GT(serial[1].quarantined, 0u);
  ASSERT_LT(serial[1].quarantined, tiny_scenario(1).trials);
  for (const auto& [name, r] : serial[1].by_strategy)
    EXPECT_EQ(r.trials, tiny_scenario(1).trials - serial[1].quarantined)
        << name;
  const std::string csv = render_robustness_csv(serial);

  for (const index_t threads : {index_t{2}, index_t{8}}) {
    const auto parallel = run(threads);
    ASSERT_EQ(parallel.size(), 2u);
    EXPECT_EQ(parallel[0].quarantined, serial[0].quarantined);
    EXPECT_EQ(parallel[1].quarantined, serial[1].quarantined);
    EXPECT_EQ(csv, render_robustness_csv(parallel));
  }
}

TEST(RobustnessMatrixTest, RealignOffSpendsNoRecoverySlots) {
  core::ScanSearch scan;
  std::vector<FaultCase> cases(1);
  cases[0].name = "clean";
  RobustnessConfig config;
  config.scenario = tiny_scenario(1);
  config.scenario.trials = 4;
  config.budget_rate = 0.25;
  config.realign = false;
  const auto results = run_fault_robustness(config, {&scan}, cases);
  ASSERT_EQ(results.size(), 1u);
  const auto& r = results[0].by_strategy.at("Scan");
  EXPECT_EQ(r.recovery_slots.mean, 0.0);
  EXPECT_EQ(r.outage_rate, 0.0);
}

}  // namespace
}  // namespace mmw::sim
