// The three workloads and the layer probes. Each run_* function performs
// one driver run (untraced or traced, per `options.trace`) and records what
// it measured into `raw`.
#pragma once

#include "common.h"
#include "sim/scenario.h"

namespace perfbench {

/// Worker threads every workload runs with (closed loops, one process).
inline constexpr mmw::index_t kThreads = 2;

void run_align(const Options& options, Raw& raw);
void run_serve(const Options& options, Raw& raw);
void run_track(const Options& options, Raw& raw);

/// The paper's scenario (fig. 6): NYC multipath, TX 4×4, RX 8×8, γ = 0 dB,
/// 8 fades per measurement.
mmw::sim::Scenario align_scenario(std::uint64_t seed);
/// The E10 tracking scenario: NYC multipath, TX 2×2, RX 4×4, γ = 30 dB,
/// 4 fades per measurement.
mmw::sim::Scenario track_scenario(std::uint64_t seed);

/// Times the library's public layer functions on the workload's shapes:
/// `own` is the workload's scenario (its link model and array sizes);
/// the N = 64 and N = 16 probes use align_scenario and, unless `own` is
/// N = 16 itself, track_scenario. Records "probe.*" scalars in seconds.
void run_layer_probes(const mmw::sim::Scenario& own, std::uint64_t seed,
                      Raw& raw);

}  // namespace perfbench
