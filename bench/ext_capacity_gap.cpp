// Extension E3: how much of the channel's MIMO capacity a single aligned
// analog beam pair captures, vs the channel's sparsity (cluster count).
//
// Expected shape: on a rank-one (single-path) channel the best beam pair is
// essentially capacity-optimal; as clusters multiply, spatial multiplexing
// pulls ahead and the analog-beamforming gap widens — the result motivating
// hybrid architectures (paper related work [14]).
#include <cstdio>

#include "channel/models.h"
#include "fig_common.h"
#include "phy/capacity.h"

int main(int argc, char** argv) {
  const mmw::bench::Cli cli(
      argc, argv,
      "Extension E3: beamforming vs MIMO capacity.\n"
      "Runs serially; --threads is ignored.",
      {});
  mmw::bench::BenchRun run("ext_capacity_gap", cli);
  using namespace mmw;
  using antenna::ArrayGeometry;
  using linalg::Matrix;

  bench::print_header("Extension E3", "beamforming vs MIMO capacity");

  const auto tx = ArrayGeometry::upa(4, 4);
  const auto rx = ArrayGeometry::upa(8, 8);
  const channel::AngularSector sector;
  const real power = 1.0;  // total transmit power (unit noise)
  const int trials = 25;

  std::printf(
      "paths\tbeamforming\tequal_power\twaterfilling\tbf_fraction "
      "(bit/s/Hz, %d trials)\n",
      trials);
  for (const index_t paths : {index_t{1}, index_t{2}, index_t{3}, index_t{4},
                              index_t{6}, index_t{8}}) {
    randgen::Rng rng(41);
    real bf = 0.0, ep = 0.0, wf = 0.0;
    for (int t = 0; t < trials; ++t) {
      std::vector<channel::Path> ps;
      for (index_t p = 0; p < paths; ++p)
        ps.push_back({1.0 / static_cast<real>(paths),
                      {rng.uniform(sector.az_min, sector.az_max),
                       rng.uniform(sector.el_min, sector.el_max)},
                      {rng.uniform(sector.az_min, sector.az_max),
                       rng.uniform(sector.el_min, sector.el_max)}});
      const channel::Link link =
          channel::make_fixed_paths_link(tx, rx, std::move(ps));
      const Matrix h = link.draw_channel(rng);
      bf += phy::optimal_beamforming_capacity(h, power);
      ep += phy::equal_power_capacity(h, power);
      wf += phy::waterfilling_capacity(h, power).capacity_bps_hz;
    }
    std::printf("%zu\t%.3f\t%.3f\t%.3f\t%.2f\n", paths, bf / trials,
                ep / trials, wf / trials, bf / wf);
  }
  run.finish();
  return 0;
}
