// Property sweeps over every alignment strategy: budget discipline,
// no-repeat, determinism, and full coverage at 100% budget — for all
// strategies on both channel families and several budgets.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "channel/models.h"
#include "core/strategy.h"

namespace mmw::core {
namespace {

using antenna::ArrayGeometry;
using antenna::Codebook;
using channel::Link;
using mac::Session;
using randgen::Rng;

enum class Kind { kRandom, kScan, kExhaustive, kProposed, kHierarchical, kLocal, kPingPong };

struct StrategyCase {
  Kind kind;
  index_t budget;
  bool multipath;
  std::uint64_t seed;
};

void PrintTo(const StrategyCase& c, std::ostream* os) {
  static const char* names[] = {"random",   "scan",         "exhaustive",
                                "proposed", "hierarchical", "local",
                                "pingpong"};
  *os << names[static_cast<int>(c.kind)] << "_L" << c.budget
      << (c.multipath ? "_nyc" : "_single") << "_seed" << c.seed;
}

std::unique_ptr<AlignmentStrategy> make_strategy(Kind kind) {
  switch (kind) {
    case Kind::kRandom:
      return std::make_unique<RandomSearch>();
    case Kind::kScan:
      return std::make_unique<ScanSearch>();
    case Kind::kExhaustive:
      return std::make_unique<ExhaustiveSearch>();
    case Kind::kProposed:
      return std::make_unique<ProposedAlignment>();
    case Kind::kHierarchical:
      return std::make_unique<HierarchicalSearch>();
    case Kind::kLocal:
      return std::make_unique<LocalSearch>();
    case Kind::kPingPong:
      return std::make_unique<PingPongAlignment>();
  }
  throw precondition_error("unknown strategy kind");
}

class StrategyProperty : public ::testing::TestWithParam<StrategyCase> {
 protected:
  static constexpr index_t kTotalPairs = 4 * 16;

  static Link make_link(const StrategyCase& c, Rng& rng) {
    const auto tx = ArrayGeometry::upa(2, 2);
    const auto rx = ArrayGeometry::upa(4, 4);
    return c.multipath ? channel::make_nyc_multipath_link(tx, rx, rng)
                       : channel::make_single_path_link(tx, rx, rng);
  }

  static Codebook tx_cb() {
    return Codebook::angular_grid(ArrayGeometry::upa(2, 2), 2, 2, -1.0, 1.0,
                                  -0.5, 0.5);
  }
  static Codebook rx_cb() {
    return Codebook::angular_grid(ArrayGeometry::upa(4, 4), 4, 4, -1.0, 1.0,
                                  -0.5, 0.5);
  }
};

TEST_P(StrategyProperty, SpendsFullBudgetWithoutRepeats) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  const Link link = make_link(p, rng);
  const auto tcb = tx_cb();
  const auto rcb = rx_cb();
  Session session(link, tcb, rcb, 1.0, p.budget, rng, 4);
  make_strategy(p.kind)->run(session);
  EXPECT_EQ(session.measurements_taken(), std::min(p.budget, kTotalPairs));
  std::set<std::pair<index_t, index_t>> seen;
  for (const auto& r : session.records()) {
    EXPECT_LT(r.tx_beam, tcb.size());
    EXPECT_LT(r.rx_beam, rcb.size());
    EXPECT_GE(r.energy, 0.0);
    EXPECT_TRUE(seen.insert({r.tx_beam, r.rx_beam}).second);
  }
}

TEST_P(StrategyProperty, DeterministicGivenSeed) {
  const auto& p = GetParam();
  auto run_once = [&]() {
    Rng rng(p.seed);
    const Link link = make_link(p, rng);
    const auto tcb = tx_cb();
    const auto rcb = rx_cb();
    Session session(link, tcb, rcb, 1.0, p.budget, rng, 4);
    make_strategy(p.kind)->run(session);
    return session.records();
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (index_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].tx_beam, b[k].tx_beam);
    EXPECT_EQ(a[k].rx_beam, b[k].rx_beam);
    EXPECT_DOUBLE_EQ(a[k].energy, b[k].energy);
  }
}

std::vector<StrategyCase> all_cases() {
  std::vector<StrategyCase> out;
  std::uint64_t seed = 1;
  for (const Kind kind :
       {Kind::kRandom, Kind::kScan, Kind::kExhaustive, Kind::kProposed,
        Kind::kHierarchical, Kind::kLocal, Kind::kPingPong}) {
    for (const index_t budget : {index_t{5}, index_t{17}, index_t{64}}) {
      for (const bool multipath : {false, true}) {
        out.push_back({kind, budget, multipath, seed++});
      }
    }
  }
  return out;
}

/// Full coverage is only a property of 100% budgets, so this test exists
/// for exactly those cases instead of skipping the others. It is registered
/// by hand on the StrategyProperty fixture under the names the
/// value-parameterized form gives it — AllStrategies/StrategyProperty.
/// FullBudgetCoversEveryPair/<index into all_cases()>, with the case as its
/// GetParam() value — so every full-budget test keeps its ID.
class FullBudgetCoversEveryPair : public StrategyProperty {
 public:
  explicit FullBudgetCoversEveryPair(StrategyCase c) : case_(c) {}

  void TestBody() override {
    Rng rng(case_.seed + 1);
    const Link link = make_link(case_, rng);
    const auto tcb = tx_cb();
    const auto rcb = rx_cb();
    Session session(link, tcb, rcb, 1.0, case_.budget, rng, 4);
    make_strategy(case_.kind)->run(session);
    EXPECT_EQ(session.measurements_taken(), kTotalPairs);
  }

  static bool register_full_budget_cases() {
    const std::vector<StrategyCase> cases = all_cases();
    for (index_t i = 0; i < cases.size(); ++i) {
      const StrategyCase c = cases[i];
      if (c.budget < kTotalPairs) continue;
      ::testing::RegisterTest(
          "AllStrategies/StrategyProperty",
          ("FullBudgetCoversEveryPair/" + std::to_string(i)).c_str(), nullptr,
          ::testing::PrintToString(c).c_str(), __FILE__, __LINE__,
          [c]() -> StrategyProperty* {
            return new FullBudgetCoversEveryPair(c);
          });
    }
    return true;
  }

 private:
  StrategyCase case_;
};

[[maybe_unused]] const bool kFullBudgetRegistered =
    FullBudgetCoversEveryPair::register_full_budget_cases();

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyProperty,
                         ::testing::ValuesIn(all_cases()));

}  // namespace
}  // namespace mmw::core
