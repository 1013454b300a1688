// Micro-benchmarks of the RNG layer (google-benchmark): keyed stream set-up,
// which the serving and tracking engines pay once per session-epoch, and the
// two variates the fade synthesis draws most.
#include <benchmark/benchmark.h>

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

}  // namespace

BENCHMARK_MAIN();
