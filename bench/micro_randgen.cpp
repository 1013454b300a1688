// Micro-benchmarks of the RNG layer (google-benchmark): keyed stream set-up,
// which the serving and tracking engines pay once per session-epoch, the
// variates the probes draw, and one whole probe through the energy law.
#include <benchmark/benchmark.h>

#include "antenna/codebook.h"
#include "channel/models.h"
#include "mac/probe.h"
#include "randgen/rng.h"

namespace {

using namespace mmw;

/// One keyed stream plus d raw 64-bit draws: the per-(user, epoch) cost
/// shape of the serving engine (d small) up to a long alignment stream.
void BM_RngStream(benchmark::State& state) {
  const std::int64_t draws = state.range(0);
  std::uint64_t key = 0;
  for (auto _ : state) {
    randgen::Rng rng = randgen::Rng::stream(2016, 0, key++, 1);
    std::uint64_t acc = 0;
    for (std::int64_t i = 0; i < draws; ++i) acc ^= rng.engine()();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RngStream)->Arg(1)->Arg(20)->Arg(200)->Arg(700);

void BM_Normal(benchmark::State& state) {
  randgen::Rng rng(2016);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_Normal);

void BM_Uniform(benchmark::State& state) {
  randgen::Rng rng(2016);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_Uniform);

void BM_ComplexNormal(benchmark::State& state) {
  randgen::Rng rng(2016);
  for (auto _ : state) benchmark::DoNotOptimize(rng.complex_normal(0.5));
}
BENCHMARK(BM_ComplexNormal);

/// One Gamma(4, ·) draw: the probe energy law at 4 fades.
void BM_Gamma(benchmark::State& state) {
  randgen::Rng rng(2016);
  for (auto _ : state) benchmark::DoNotOptimize(rng.gamma(4.0, 0.25));
}
BENCHMARK(BM_Gamma);

/// One mac::probe_energy call on a NYC multipath link at N = 16 with
/// 4 fades, cycling through the codebook pairs: the measurement the
/// tracking engine repeats for every probe of every user-epoch.
void BM_ProbeEnergy(benchmark::State& state) {
  const auto tx = antenna::ArrayGeometry::upa(4, 4);
  const auto rx = antenna::ArrayGeometry::upa(4, 4);
  randgen::Rng link_rng(2016);
  const channel::Link link =
      channel::make_nyc_multipath_link(tx, rx, link_rng);
  const antenna::Codebook tx_cb = antenna::Codebook::dft(tx);
  const antenna::Codebook rx_cb = antenna::Codebook::dft(rx);
  const mac::ProbeView view{&link, &tx_cb, &rx_cb, 10.0};
  randgen::Rng rng(7);
  index_t pair = 0;
  for (auto _ : state) {
    const index_t p = pair++ % (tx_cb.size() * rx_cb.size());
    benchmark::DoNotOptimize(mac::probe_energy(
        view, p / rx_cb.size(), p % rx_cb.size(), 4, rng));
  }
  state.counters["paths"] = static_cast<double>(link.paths().size());
}
BENCHMARK(BM_ProbeEnergy);

}  // namespace

BENCHMARK_MAIN();
