// Experiment scenarios: the paper's simulation setup in one value type.
//
// Ownership / thread-safety: Scenario is a plain value type (cheap to copy,
// no hidden references); the experiment drivers take it by const& and never
// mutate it, so one Scenario may be shared by any number of concurrent
// experiment runs. TrialContext owns everything a trial touches (link,
// codebooks, oracle) by value — trials built from independent Rng streams
// share no state and are safe to run on different threads.
#pragma once

#include <memory>
#include <optional>

#include "antenna/codebook.h"
#include "channel/models.h"
#include "core/oracle.h"
#include "fault/context.h"
#include "fault/fault.h"
#include "mac/session.h"

namespace mmw::core {
class AlignmentStrategy;
}

namespace mmw::sim {

/// Which channel a trial draws its link from.
enum class ChannelKind {
  kSinglePath,    ///< one specular path (paper Figs. 5 & 7)
  kNycMultipath,  ///< Akdeniz NYC cluster channel (paper Figs. 6 & 8)
};

/// Which beam codebook the terminals train over.
enum class CodebookKind {
  /// Steering vectors on a uniform angular grid covering the sector.
  /// Neighbouring codewords overlap, which is what lets a covariance
  /// estimate score directions it has not probed — the property the
  /// paper's eigen-directed measurement relies on. Default.
  kAngularGrid,
  /// Orthonormal DFT beams. With orthogonal codewords the regularized ML
  /// estimate provably cannot extrapolate outside the probed span (see
  /// estimate_covariance_ml), so the adaptive scheme degrades to its
  /// cross-slot reuse effect only. Kept for ablation.
  kDft,
};

/// A reproducible experiment configuration. Defaults mirror the paper's
/// setup (Sec. V-A): TX 4×4 λ/2 UPA, RX 8×8 λ/2 UPA, one codebook beam per
/// antenna element, so T = 16·64 = 1024 beam pairs.
struct Scenario {
  ChannelKind channel = ChannelKind::kSinglePath;
  channel::NycClusterParams nyc;  ///< used when channel == kNycMultipath

  /// Angular sector shared by the channel path generator and the angular
  /// codebooks.
  channel::AngularSector sector;

  CodebookKind codebook = CodebookKind::kAngularGrid;

  index_t tx_grid_x = 4, tx_grid_y = 4;
  index_t rx_grid_x = 8, rx_grid_y = 8;

  /// Pre-beamforming SNR γ = Es/N0, **linear** (not dB: a CLI "--gamma-db G"
  /// maps to gamma = 10^(G/10)). 1.0 (0 dB) puts the aligned pair ≈30 dB
  /// above noise while off paths stay near the floor.
  real gamma = 1.0;

  /// Independent fades averaged per measurement slot (see mac::Session).
  index_t fades_per_measurement = 8;

  /// Master seed. Trial t of an experiment driver uses the independent
  /// stream randgen::Rng::stream(seed, t); results are bit-identical for a
  /// given seed regardless of `threads`.
  std::uint64_t seed = 1;
  index_t trials = 20;

  /// Worker threads the Monte-Carlo drivers spread trials over.
  /// 0 = auto (std::thread::hardware_concurrency()); 1 = pure serial path
  /// (no pool constructed). Any value yields identical results — this knob
  /// only trades wall-clock for cores.
  index_t threads = 0;

  /// Deterministic fault injection (DESIGN.md §11). Default-constructed =
  /// all faults off, in which case the drivers take the exact code path
  /// they took before the fault runtime existed (bit-identical outputs).
  /// Trial t draws its plan from the reserved fault key range
  /// (fault::fault_stream), never from the trial's measurement stream, so
  /// enabling one fault type does not shift any other randomness.
  fault::FaultConfig faults;

  index_t total_pairs() const {
    return tx_grid_x * tx_grid_y * rx_grid_x * rx_grid_y;
  }
};

/// Everything one Monte-Carlo trial needs: a realized link, the codebooks,
/// and the grading oracle.
struct TrialContext {
  channel::Link link;
  antenna::Codebook tx_codebook;
  antenna::Codebook rx_codebook;
  core::PairGainOracle oracle;
};

/// The scenario's TX/RX codebook pair (deterministic — no randomness).
/// Split out of make_trial so engines that run many links against the same
/// codebooks (sim/multicell.h) can build them once and share them
/// read-only across shards.
struct CodebookPair {
  antenna::Codebook tx;
  antenna::Codebook rx;
};
CodebookPair make_scenario_codebooks(const Scenario& scenario);

/// Draws one realized link of the scenario's channel kind between the
/// scenario's arrays. Reads only `scenario` (const) and draws only from
/// `rng`; safe to call concurrently with distinct Rng objects.
channel::Link make_scenario_link(const Scenario& scenario, randgen::Rng& rng);

/// Draws the trial-specific link and builds codebooks/oracle. Composes the
/// two helpers above; same thread-safety contract.
TrialContext make_trial(const Scenario& scenario, randgen::Rng& rng);

/// Measurement budget of a search/budget rate in (0, 1] over `total`
/// pairs: round(rate·total), at least one slot.
index_t rate_to_budget(real rate, index_t total);

/// One (entity, trial) fault realization, shared by every strategy run on
/// that link (fairness: strategies face the same blockage onset, the same
/// dropped slots, the same stressed solves).
struct TrialFaults {
  fault::FaultPlan plan;
  std::optional<channel::Link> degraded;  ///< set iff plan has a blockage
};

/// Draws the plan of (entity, trial) over `budget` slots of `link` from
/// the reserved fault key range (fault::fault_stream), so the trial's
/// measurement streams are untouched; nullopt when `config` injects
/// nothing.
std::optional<TrialFaults> draw_trial_faults(const fault::FaultConfig& config,
                                             std::uint64_t seed,
                                             std::uint64_t entity,
                                             index_t trial,
                                             const channel::Link& link,
                                             index_t budget);

/// Runs `strategy` on `session`, armed with `faults` when set: the session
/// injects the plan's slot faults and blockage, and this thread's fault
/// context (fault/context.h) feeds the stressed solves to the degradation
/// ladder. Returns the run's fault counters (all zero when unarmed).
fault::TrialFaultState run_with_faults(
    const core::AlignmentStrategy& strategy, mac::Session& session,
    const std::optional<TrialFaults>& faults);

}  // namespace mmw::sim
