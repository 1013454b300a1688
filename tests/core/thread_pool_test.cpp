#include "core/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/shards.h"
#include "obs/flight.h"
#include "obs/obs.h"

namespace mmw::core {
namespace {

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_GE(resolve_thread_count(0), 1u);  // auto: at least one
}

TEST(ThreadPoolTest, ZeroTaskShutdown) {
  // Construct and destroy without ever submitting work; must not hang.
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
}

TEST(ThreadPoolTest, EmptyRangeReturnsImmediately) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(5, 5, [&](index_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, ParallelForCompletesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr index_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](index_t i) { hits[i].fetch_add(1); });
  for (index_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForRespectsBegin) {
  ThreadPool pool(2);
  std::vector<int> hits(10, 0);
  pool.parallel_for(7, 10, [&](index_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
  EXPECT_EQ(hits[7] + hits[8] + hits[9], 3);
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> out(64, 0);
  pool.parallel_for(0, out.size(),
                    [&](index_t i) { out[i] = static_cast<int>(i); });
  for (index_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](index_t i) {
                          if (i == 13) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool survives a throwing parallel_for and accepts new work.
  std::atomic<int> done{0};
  pool.parallel_for(0, 8, [&](index_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, LowestIndexFailureWinsDeterministically) {
  // Many iterations fail; the rethrown exception must always be the one
  // from the LOWEST failing index, regardless of thread scheduling.
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(0, 400, [&](index_t i) {
        if (i % 7 == 3)  // 3, 10, 17, ... — lowest is 3
          throw std::runtime_error("fail@" + std::to_string(i));
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail@3");
    }
  }
}

TEST(ThreadPoolTest, QuarantineCollectsEveryFailureSorted) {
  ThreadPool pool(4);
  // Pooled and inline (no pool) runs report the same sorted failures.
  for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    std::vector<std::atomic<int>> hits(100);
    const std::vector<IterationFailure> failures =
        run_shards(p, 100, OnFailure::kQuarantine, [&](index_t i) {
          hits[i].fetch_add(1);
          if (i % 10 == 5)
            throw std::runtime_error("bad " + std::to_string(i));
        });
    // No cancellation: every index ran exactly once.
    for (index_t i = 0; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    ASSERT_EQ(failures.size(), 10u);
    for (index_t k = 0; k < failures.size(); ++k) {
      EXPECT_EQ(failures[k].index, 10 * k + 5);
      EXPECT_EQ(failures[k].message, "bad " + std::to_string(10 * k + 5));
    }
  }
}

TEST(ThreadPoolTest, QuarantineEmptyWhenNothingThrows) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  const auto failures = run_shards(&pool, 32, OnFailure::kQuarantine,
                                   [&](index_t) { done.fetch_add(1); });
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPoolTest, RunShardsWithoutPoolRunsInOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<index_t> order;
  const auto failures =
      run_shards(nullptr, 5, OnFailure::kPropagate, [&](index_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      });
  EXPECT_TRUE(failures.empty());
  EXPECT_EQ(order, (std::vector<index_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, RunShardsPropagatesLowestIndexFailure) {
  ThreadPool pool(4);
  for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    try {
      run_shards(p, 200, OnFailure::kPropagate, [](index_t i) {
        if (i % 7 == 3) throw std::runtime_error("fail@" + std::to_string(i));
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail@3");
    }
  }
}

TEST(ThreadPoolTest, MakePoolIsNullForOneThread) {
  EXPECT_EQ(make_pool(1, 100), nullptr);
  EXPECT_EQ(make_pool(8, 1), nullptr);  // one shard: nothing to spread
  EXPECT_EQ(make_pool(4, 0), nullptr);
  const auto pool = make_pool(8, 3);  // capped at the shard count
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->thread_count(), 3u);
}

TEST(ThreadPoolTest, SequentialParallelForsReuseTheSamePool) {
  ThreadPool pool(3);
  std::atomic<index_t> total{0};
  for (int round = 0; round < 10; ++round)
    pool.parallel_for(0, 50, [&](index_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 500u);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  std::atomic<bool> ran{false};
  {
    ThreadPool pool(2);
    pool.submit([&] { ran.store(true); });
    // Destructor drains the queue before joining.
  }
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, HeartbeatAdvancesWithWork) {
  ThreadPool pool(3);
  const std::uint64_t before = pool.heartbeat();
  pool.parallel_for(0, 100, [](index_t) {});
  const std::uint64_t after_for = pool.heartbeat();
  // One beat per completed iteration — the watchdog's liveness signal.
  EXPECT_GE(after_for, before + 100);

  run_shards(&pool, 50, OnFailure::kQuarantine, [](index_t i) {
    if (i % 2 == 0) throw std::runtime_error("boom");
  });
  // Failing iterations still beat: a shard that throws is not a stall.
  EXPECT_GE(pool.heartbeat(), after_for + 50);
}

TEST(ThreadPoolTest, HeartbeatIsMonotone) {
  ThreadPool pool(2);
  std::uint64_t last = pool.heartbeat();
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(0, 20, [](index_t) {});
    const std::uint64_t now = pool.heartbeat();
    EXPECT_GE(now, last + 20);
    last = now;
  }
}

TEST(ThreadPoolTest, QuarantinedFailureDumpsFlightRecorder) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "mmw_pool_flight_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::FlightRecorder::global().set_dump_directory(dir.string());
  const std::uint64_t dumps_before =
      obs::FlightRecorder::global().dump_count();

  ThreadPool pool(2);
  run_shards(&pool, 8, OnFailure::kQuarantine, [](index_t i) {
    if (i == 3 || i == 5) throw std::runtime_error("quarantine me");
  });
  // One dump per quarantined run_shards with failures, not per failure.
  EXPECT_EQ(obs::FlightRecorder::global().dump_count(), dumps_before + 1);

  bool found = false;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().filename().string().find("quarantined_iteration") !=
        std::string::npos)
      found = true;
  EXPECT_TRUE(found);

  // A clean quarantined run must NOT dump.
  run_shards(&pool, 8, OnFailure::kQuarantine, [](index_t) {});
  EXPECT_EQ(obs::FlightRecorder::global().dump_count(), dumps_before + 1);

  // Without a pool (one thread) a failing call dumps just the same.
  run_shards(nullptr, 8, OnFailure::kQuarantine, [](index_t i) {
    if (i == 0) throw std::runtime_error("quarantine me");
  });
  EXPECT_EQ(obs::FlightRecorder::global().dump_count(), dumps_before + 2);

  obs::FlightRecorder::global().set_dump_directory("bench_results");
  obs::set_enabled(was_enabled);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mmw::core
