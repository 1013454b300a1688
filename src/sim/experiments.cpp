#include "sim/experiments.h"

#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>

#include "core/shards.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/evaluation.h"

namespace mmw::sim {

namespace {

/// Per-strategy summaries of one graded sweep, plus the trials it excluded.
struct GradedSweep {
  std::map<std::string, std::vector<Summary>> summaries;
  std::vector<index_t> quarantined;
};

/// The trial loop behind both of the paper's experiment families: every
/// strategy runs once per trial under a `budget`-slot session, and
/// grade(oracle, records) turns each run into `n_points` values (one per
/// search rate or target loss). Trial t draws from the shared-state-free
/// stream Rng::stream(seed, t) and writes only its own slot; slots are
/// reduced in trial-index order, so the summaries are identical at any
/// thread count.
///
/// With faults.quarantine_trials set, a trial whose run throws is recorded
/// in `quarantined` and excluded from every summary instead of aborting
/// the sweep; the excluded set is a function of the seed alone. Without
/// the knob the lowest-index failure propagates.
template <typename Grade>
GradedSweep run_graded_trials(
    const Scenario& scenario,
    const std::vector<const core::AlignmentStrategy*>& strategies,
    index_t budget, index_t n_points, const Grade& grade) {
  static const obs::Counter trials_counter =
      obs::Registry::global().counter("sim.trials");
  static const obs::Counter quarantined_counter =
      obs::Registry::global().counter("sim.trials.quarantined");

  // per_trial[t][strategy][point] — each trial owns its slot, so trials can
  // run on any thread in any order.
  std::vector<std::vector<std::vector<real>>> per_trial(scenario.trials);
  const auto pool = core::make_pool(scenario.threads, scenario.trials);
  const std::vector<core::IterationFailure> failures = core::run_shards(
      pool.get(), scenario.trials,
      scenario.faults.quarantine_trials ? core::OnFailure::kQuarantine
                                        : core::OnFailure::kPropagate,
      [&](index_t t) {
        MMW_TRACE_SCOPE("sim.trial", "sim");
        if (obs::enabled()) trials_counter.add();
        randgen::Rng trial_rng = randgen::Rng::stream(scenario.seed, t);
        const TrialContext ctx = make_trial(scenario, trial_rng);
        const std::optional<TrialFaults> faults = draw_trial_faults(
            scenario.faults, scenario.seed, 0, t, ctx.link, budget);
        auto& mine = per_trial[t];
        mine.clear();  // may rerun after a quarantined partial write
        mine.reserve(strategies.size());
        for (const auto* strategy : strategies) {
          randgen::Rng run_rng = trial_rng.fork();
          mac::Session session(ctx.link, ctx.tx_codebook, ctx.rx_codebook,
                               scenario.gamma, budget, run_rng,
                               scenario.fades_per_measurement);
          run_with_faults(*strategy, session, faults);
          mine.push_back(grade(ctx.oracle, session.records()));
        }
      });

  GradedSweep out;
  for (const core::IterationFailure& f : failures)
    out.quarantined.push_back(f.index);
  if (!out.quarantined.empty()) {
    if (obs::enabled()) quarantined_counter.add(out.quarantined.size());
    std::cerr << "[sim] quarantined " << out.quarantined.size() << "/"
              << scenario.trials << " trials after in-trial failures\n";
  }
  MMW_REQUIRE_MSG(out.quarantined.size() < scenario.trials,
                  "every trial was quarantined — nothing to summarize");

  // Reduce in trial-index order: parallel output == serial output.
  // Quarantined trials hold partial data and are skipped identically at
  // every thread count.
  std::vector<bool> skip(scenario.trials, false);
  for (const index_t t : out.quarantined) skip[t] = true;
  std::map<std::string, std::vector<std::vector<real>>> samples;
  for (const auto* s : strategies)
    samples[std::string(s->name())].assign(n_points, {});
  for (index_t t = 0; t < scenario.trials; ++t) {
    if (skip[t]) continue;
    for (index_t si = 0; si < strategies.size(); ++si) {
      auto& per_point = samples[std::string(strategies[si]->name())];
      for (index_t k = 0; k < n_points; ++k)
        per_point[k].push_back(per_trial[t][si][k]);
    }
  }
  for (auto& [name, per_point] : samples) {
    std::vector<Summary> row;
    row.reserve(per_point.size());
    for (const auto& sample : per_point) row.push_back(summarize(sample));
    out.summaries.emplace(name, std::move(row));
  }
  return out;
}

}  // namespace

EffectivenessResult run_search_effectiveness(
    const Scenario& scenario,
    const std::vector<const core::AlignmentStrategy*>& strategies,
    const std::vector<real>& search_rates) {
  MMW_REQUIRE(!strategies.empty());
  MMW_REQUIRE(!search_rates.empty());
  MMW_REQUIRE(scenario.trials >= 1);
  MMW_REQUIRE(std::is_sorted(search_rates.begin(), search_rates.end()));

  obs::TraceScope span("sim.run_search_effectiveness", "sim");
  span.arg("trials", static_cast<double>(scenario.trials));
  span.arg("strategies", static_cast<double>(strategies.size()));

  const index_t total = scenario.total_pairs();
  GradedSweep sweep = run_graded_trials(
      scenario, strategies, rate_to_budget(search_rates.back(), total),
      search_rates.size(),
      [&](const core::PairGainOracle& oracle,
          const std::vector<mac::MeasurementRecord>& records) {
        std::vector<real> losses;
        losses.reserve(search_rates.size());
        for (const real rate : search_rates) {
          const index_t budget = std::min<index_t>(
              rate_to_budget(rate, total), records.size());
          losses.push_back(loss_after(oracle, records, budget));
        }
        return losses;
      });

  EffectivenessResult out;
  out.search_rates = search_rates;
  out.loss_db = std::move(sweep.summaries);
  out.quarantined_trials = std::move(sweep.quarantined);
  return out;
}

CostEfficiencyResult run_cost_efficiency(
    const Scenario& scenario,
    const std::vector<const core::AlignmentStrategy*>& strategies,
    const std::vector<real>& target_loss_db) {
  MMW_REQUIRE(!strategies.empty());
  MMW_REQUIRE(!target_loss_db.empty());
  MMW_REQUIRE(scenario.trials >= 1);

  obs::TraceScope span("sim.run_cost_efficiency", "sim");
  span.arg("trials", static_cast<double>(scenario.trials));
  span.arg("strategies", static_cast<double>(strategies.size()));

  const index_t total = scenario.total_pairs();
  GradedSweep sweep = run_graded_trials(
      scenario, strategies, total, target_loss_db.size(),
      [&](const core::PairGainOracle& oracle,
          const std::vector<mac::MeasurementRecord>& records) {
        std::vector<real> needed_rates;
        needed_rates.reserve(target_loss_db.size());
        for (const real target : target_loss_db) {
          const auto needed = measurements_to_reach(oracle, records, target);
          needed_rates.push_back(
              needed ? static_cast<real>(*needed) / static_cast<real>(total)
                     : 1.0);
        }
        return needed_rates;
      });

  CostEfficiencyResult out;
  out.target_loss_db = target_loss_db;
  out.required_rate = std::move(sweep.summaries);
  out.quarantined_trials = std::move(sweep.quarantined);
  return out;
}

std::string render_table(
    const std::string& x_label, const std::vector<real>& xs,
    const std::map<std::string, std::vector<Summary>>& series) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << x_label;
  for (const auto& [name, values] : series) {
    MMW_REQUIRE_MSG(values.size() == xs.size(),
                    "series length must match x axis");
    os << '\t' << name << " (mean±ci95)";
  }
  os << '\n';
  for (index_t i = 0; i < xs.size(); ++i) {
    os << xs[i];
    for (const auto& [name, values] : series)
      os << '\t' << values[i].mean << "±" << values[i].ci95_half_width();
    os << '\n';
  }
  return os.str();
}

std::string render_csv(
    const std::string& x_label, const std::vector<real>& xs,
    const std::map<std::string, std::vector<Summary>>& series) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(6);
  os << x_label;
  for (const auto& [name, values] : series) {
    MMW_REQUIRE(values.size() == xs.size());
    os << ',' << name;
  }
  os << '\n';
  for (index_t i = 0; i < xs.size(); ++i) {
    os << xs[i];
    for (const auto& [name, values] : series) os << ',' << values[i].mean;
    os << '\n';
  }
  return os.str();
}

}  // namespace mmw::sim
