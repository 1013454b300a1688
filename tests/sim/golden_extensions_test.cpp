// Pinned-seed goldens for the extension engines — E7 (multi-cell
// interference), E8 (fault robustness), E9 (serving) — the same freeze the
// paper figures get in golden_figures_test.cpp: tiny configurations, fixed
// seeds, values pinned to 17 significant digits at generation time. Any
// change to an engine's arithmetic, stream layout, or reduction order
// shows up here as a precise diff, not a statistical drift.
//
// Regenerating after an INTENTIONAL change: print the asserted quantities
// with %.17g under the exact configs below (threads = 1) and paste.
#include <gtest/gtest.h>

#include <vector>

#include "core/strategy.h"
#include "serve/serve.h"
#include "sim/multicell.h"
#include "sim/robustness.h"

namespace mmw::sim {
namespace {

constexpr real kTol = 1e-9;

Scenario tiny_scenario() {
  Scenario sc;
  sc.channel = ChannelKind::kSinglePath;
  sc.tx_grid_x = 2;
  sc.tx_grid_y = 2;
  sc.rx_grid_x = 4;
  sc.rx_grid_y = 4;
  sc.fades_per_measurement = 2;
  sc.gamma = 100.0;
  sc.seed = 20160401;
  sc.trials = 3;
  sc.threads = 1;
  return sc;
}

TEST(GoldenExtensions, E7MulticellTinyTrialsPinned) {
  core::ExhaustiveSearch exhaustive;
  core::ProposedAlignment proposed;
  MultiCellConfig cfg;
  cfg.scenario = tiny_scenario();
  cfg.topology.cells = 3;
  cfg.search_rate = 0.10;
  cfg.budget_rate = 0.35;
  const MultiCellResult r = run_multicell(cfg, {&exhaustive, &proposed});

  EXPECT_EQ(r.cells, 3u);
  EXPECT_EQ(r.sessions_per_strategy, 9u);
  EXPECT_NEAR(r.loss_db.at("Exhaustive").mean, 20.153395143463928, kTol);
  EXPECT_NEAR(r.loss_db.at("Proposed").mean, 30.862105135445795, kTol);
  EXPECT_NEAR(r.required_rate.at("Exhaustive").mean, 0.58854166666666663,
              kTol);
  EXPECT_NEAR(r.required_rate.at("Proposed").mean, 0.2795138888888889,
              kTol);
  EXPECT_NEAR(r.interference_over_noise_db.mean, 7.2838172682883391, kTol);
  EXPECT_TRUE(r.quarantined_shards.empty());
}

TEST(GoldenExtensions, E8RobustnessTinyTrialsPinned) {
  core::ExhaustiveSearch exhaustive;
  core::ProposedAlignment proposed;
  RobustnessConfig cfg;
  cfg.scenario = tiny_scenario();
  FaultCase clean{"clean", {}};
  clean.faults.quarantine_trials = true;
  FaultCase blockage{"blockage", {}};
  blockage.faults.blockage_probability = 1.0;
  blockage.faults.quarantine_trials = true;
  const std::vector<FaultCaseResult> rs = run_fault_robustness(
      cfg, {&exhaustive, &proposed}, {clean, blockage});

  ASSERT_EQ(rs.size(), 2u);
  const FaultCaseResult& c = rs[0];
  EXPECT_EQ(c.name, "clean");
  EXPECT_EQ(c.quarantined, 0u);
  EXPECT_NEAR(c.by_strategy.at("Exhaustive").loss_db.mean,
              27.27101303617302, kTol);
  EXPECT_NEAR(c.by_strategy.at("Proposed").loss_db.mean,
              16.974477337932914, kTol);
  EXPECT_NEAR(c.by_strategy.at("Exhaustive").outage_rate, 0.0, kTol);
  EXPECT_NEAR(c.by_strategy.at("Exhaustive").recovery_slots.mean, 1.0,
              kTol);

  const FaultCaseResult& b = rs[1];
  EXPECT_EQ(b.name, "blockage");
  EXPECT_NEAR(b.by_strategy.at("Exhaustive").loss_db.mean,
              31.7876459601266, kTol);
  EXPECT_NEAR(b.by_strategy.at("Proposed").loss_db.mean,
              20.660075448841422, kTol);
  EXPECT_NEAR(b.by_strategy.at("Exhaustive").outage_rate,
              0.33333333333333331, kTol);
  EXPECT_NEAR(b.by_strategy.at("Proposed").outage_rate, 0.0, kTol);
  EXPECT_NEAR(b.by_strategy.at("Exhaustive").recovery_slots.mean,
              1.3333333333333333, kTol);
  EXPECT_NEAR(b.by_strategy.at("Proposed").recovery_slots.mean, 1.0, kTol);
}

TEST(GoldenExtensions, E9ServingTinyRunPinned) {
  serve::ServeConfig cfg;
  cfg.scenario = tiny_scenario();
  cfg.scenario.gamma = 1000.0;
  cfg.scenario.tx_grid_x = 2;
  cfg.scenario.tx_grid_y = 1;
  cfg.scenario.rx_grid_x = 2;
  cfg.scenario.rx_grid_y = 2;
  cfg.topology.cells = 4;
  cfg.initial_sessions = 120;
  cfg.epochs = 6;
  cfg.align_epochs = 2;
  cfg.probes_per_slot = 3;
  cfg.session_block = 16;
  serve::ServingEngine engine(cfg);
  const serve::ServeResult r = engine.run();

  EXPECT_EQ(r.sessions_stepped, 720u);
  ASSERT_EQ(r.epochs.size(), 6u);
  EXPECT_NEAR(r.epochs.back().mean_loss_db, 3.0369949335348942, kTol);
  EXPECT_NEAR(r.epochs.back().p99_loss_db, 40.528675521239407, kTol);
  EXPECT_NEAR(r.loss_p50_db, 0.0, kTol);
  EXPECT_NEAR(r.loss_p99_db, 35.427658935806221, kTol);
  std::uint64_t claims = 0;
  for (const serve::EpochReport& e : r.epochs) claims += e.claims;
  EXPECT_EQ(claims, 127u);
}

}  // namespace
}  // namespace mmw::sim
