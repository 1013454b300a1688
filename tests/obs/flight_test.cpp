// FlightRecorder tests: ring wraparound, multi-thread capture, ring
// recycling across short-lived threads, Chrome-trace snapshot shape, dump
// files, the dump cap, and disarming.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.h"
#include "obs/obs.h"

namespace mmw::obs {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

fs::path fresh_dir(const char* tag) {
  const fs::path dir =
      fs::temp_directory_path() / (std::string("mmw_flight_") + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::uint64_t count_occurrences(const std::string& hay,
                                const std::string& needle) {
  std::uint64_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(FlightRecorderTest, RecordsAndCountsEvents) {
  FlightRecorder rec(8);
  EXPECT_TRUE(rec.armed());
  EXPECT_EQ(rec.event_count(), 0u);
  rec.record("span.a", "test", 100, 5);
  rec.record("span.b", "test", 110, 7);
  EXPECT_EQ(rec.event_count(), 2u);
  rec.clear();
  EXPECT_EQ(rec.event_count(), 0u);
}

TEST(FlightRecorderTest, RingOverwritesOldestAtCapacity) {
  FlightRecorder rec(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    rec.record(i % 2 == 0 ? "even" : "odd", "test", i * 100, 1);
  // Capacity bounds the ring: 10 records, only the last 4 survive.
  EXPECT_EQ(rec.event_count(), 4u);

  const std::string json = rec.chrome_json("wraparound");
  // Survivors are i = 6..9: timestamps 600, 700, 800, 900 — oldest first.
  EXPECT_EQ(count_occurrences(json, "\"ts\":"), 4u);
  const auto p600 = json.find("\"ts\":600");
  const auto p700 = json.find("\"ts\":700");
  const auto p800 = json.find("\"ts\":800");
  const auto p900 = json.find("\"ts\":900");
  ASSERT_NE(p600, std::string::npos);
  ASSERT_NE(p700, std::string::npos);
  ASSERT_NE(p800, std::string::npos);
  ASSERT_NE(p900, std::string::npos);
  EXPECT_LT(p600, p700);
  EXPECT_LT(p700, p800);
  EXPECT_LT(p800, p900);
  EXPECT_EQ(json.find("\"ts\":500"), std::string::npos);
}

TEST(FlightRecorderTest, ChromeJsonIsSelfDescribing) {
  FlightRecorder rec(8);
  rec.record("estimation.ml.solve", "estimation", 42, 13);
  const std::string json = rec.chrome_json("unit test: reason");
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"estimation.ml.solve\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":13"), std::string::npos);
  EXPECT_NE(json.find("\"source\":\"mmw.flight_recorder/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"unit test: reason\""), std::string::npos);
}

TEST(FlightRecorderTest, EachThreadGetsItsOwnRing) {
  FlightRecorder rec(4);
  rec.record("main.span", "test", 1, 1);
  std::thread worker([&rec] {
    for (int i = 0; i < 6; ++i) rec.record("worker.span", "test", 10 + i, 1);
  });
  worker.join();
  // Main kept 1, the worker's ring wrapped to its own capacity of 4.
  EXPECT_EQ(rec.event_count(), 5u);
  const std::string json = rec.chrome_json("threads");
  EXPECT_EQ(count_occurrences(json, "\"name\":\"worker.span\""), 4u);
  EXPECT_EQ(count_occurrences(json, "\"name\":\"main.span\""), 1u);
}

TEST(FlightRecorderTest, ShortLivedThreadsRecycleRings) {
  // Engines build a fresh pool per run: 200 recording threads, at most 4
  // alive at once, must leave at most 4 rings, not 200.
  FlightRecorder rec(8);
  constexpr int kThreads = 200;
  constexpr int kAlive = 4;
  const auto spawn = [&rec](const char* name) {
    return std::thread([&rec, name] {
      for (std::uint64_t i = 0; i < 3; ++i) rec.record(name, "test", i, 1);
    });
  };
  for (int started = 0; started < kThreads - 1; started += kAlive) {
    std::vector<std::thread> wave;
    for (int t = started; t < std::min(started + kAlive, kThreads - 1); ++t)
      wave.push_back(spawn("early.span"));
    for (std::thread& t : wave) t.join();
    ASSERT_LE(rec.ring_count(), static_cast<std::uint64_t>(kAlive))
        << "after thread " << started;
  }
  spawn("last.span").join();
  EXPECT_LE(rec.ring_count(), static_cast<std::uint64_t>(kAlive));
  // Every thread has exited; no thread registered after the last one, so
  // its spans are still in the dump.
  const std::string json = rec.chrome_json("after exit");
  EXPECT_EQ(count_occurrences(json, "\"name\":\"last.span\""), 3u);
  EXPECT_LE(rec.event_count(), 3u * kAlive);
}

TEST(FlightRecorderTest, ExitedThreadsRingStaysDumpableUntilReused) {
  FlightRecorder rec(4);
  std::thread([&rec] { rec.record("dead.span", "test", 1, 1); }).join();
  EXPECT_EQ(rec.ring_count(), 1u);
  EXPECT_EQ(count_occurrences(rec.chrome_json("dead"), "dead.span"), 1u);
  // The next registering thread takes the ring over, starting it empty.
  rec.record("main.span", "test", 2, 1);
  EXPECT_EQ(rec.ring_count(), 1u);
  const std::string json = rec.chrome_json("reused");
  EXPECT_EQ(count_occurrences(json, "dead.span"), 0u);
  EXPECT_EQ(count_occurrences(json, "main.span"), 1u);
}

TEST(FlightRecorderTest, FlightOffFromEnvRecordsNothing) {
  FlightRecorder& rec = FlightRecorder::global();
  const bool was_armed = rec.armed();
  const bool obs_was_on = enabled();
  ASSERT_EQ(setenv("MMW_FLIGHT", "off", 1), 0);
  init_from_env(obs_was_on);
  EXPECT_FALSE(rec.armed());
  const std::uint64_t events = rec.event_count();
  const std::uint64_t rings = rec.ring_count();
  std::thread([&rec] { rec.record("off.span", "test", 1, 1); }).join();
  rec.record("off.span", "test", 2, 1);
  EXPECT_EQ(rec.event_count(), events);
  EXPECT_EQ(rec.ring_count(), rings);
  EXPECT_EQ(rec.dump("off"), "");
  ASSERT_EQ(unsetenv("MMW_FLIGHT"), 0);
  init_from_env(obs_was_on);
  EXPECT_TRUE(rec.armed());
  rec.set_armed(was_armed);
}

TEST(FlightRecorderTest, DumpWritesSanitizedFileAndCountsUp) {
  const fs::path dir = fresh_dir("dump");
  FlightRecorder rec(8);
  rec.set_dump_directory(dir.string());
  rec.record("span", "test", 5, 2);

  const std::string path = rec.dump("outage burst!");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(rec.dump_count(), 1u);
  // Reason is sanitized into the filename but verbatim inside the document.
  EXPECT_NE(path.find("flight_0_outage_burst_.json"), std::string::npos);
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"reason\":\"outage burst!\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"span\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(FlightRecorderTest, DumpsSaturateAtTheCap) {
  const fs::path dir = fresh_dir("cap");
  FlightRecorder rec(4);
  rec.set_dump_directory(dir.string());
  rec.record("span", "test", 1, 1);

  std::uint64_t written = 0;
  for (std::uint64_t i = 0; i < FlightRecorder::kMaxDumps + 5; ++i)
    if (!rec.dump("burst").empty()) ++written;
  EXPECT_EQ(written, FlightRecorder::kMaxDumps);
  EXPECT_EQ(rec.dump_count(), FlightRecorder::kMaxDumps);

  std::uint64_t files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, FlightRecorder::kMaxDumps);
  fs::remove_all(dir);
}

TEST(FlightRecorderTest, DisarmedRecorderIsInert) {
  const fs::path dir = fresh_dir("disarm");
  FlightRecorder rec(8);
  rec.set_dump_directory(dir.string());
  rec.set_armed(false);
  rec.record("span", "test", 1, 1);
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_EQ(rec.dump("anything"), "");
  EXPECT_EQ(rec.dump_count(), 0u);

  // Re-arming restores recording without losing the registration.
  rec.set_armed(true);
  rec.record("span", "test", 2, 1);
  EXPECT_EQ(rec.event_count(), 1u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mmw::obs
