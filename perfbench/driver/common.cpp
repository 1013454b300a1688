#include "common.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace perfbench {

void Raw::check(bool ok, const std::string& what) {
  ++checks_run_;
  if (!ok) check_failures_.push_back(what);
}

std::string Raw::to_json() const {
  mmw::obs::JsonWriter w;
  w.begin_object();
  w.key("scalars");
  w.begin_object();
  for (const auto& [name, value] : scalars_) {
    w.key(name);
    w.number(value);
  }
  w.end_object();
  w.key("series");
  w.begin_object();
  for (const auto& [name, values] : series_) {
    w.key(name);
    w.begin_array();
    for (const double v : values) w.number(v);
    w.end_array();
  }
  w.end_object();
  w.key("checks_run");
  w.number(checks_run_);
  w.key("check_failures");
  w.begin_array();
  for (const std::string& f : check_failures_) w.string(f);
  w.end_array();
  w.key("attempted");
  w.number(attempted_);
  w.key("failed");
  w.number(failed_);
  w.key("counters");
  if (counters_json_.empty())
    w.null();
  else
    w.raw(counters_json_);
  w.end_object();
  return std::move(w).str();
}

void set_traced(bool on) {
  auto& collector = mmw::obs::TraceCollector::global();
  if (on) {
    mmw::obs::Registry::global().reset();
    collector.clear();
  }
  mmw::obs::set_enabled(on);
  collector.set_capturing(on);
}

std::string finish_traced_pass(const std::string& path) {
  set_traced(false);
  auto& collector = mmw::obs::TraceCollector::global();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << collector.chrome_json();
    if (!out) throw std::runtime_error("cannot write trace to " + path);
  }
  collector.clear();
  return mmw::obs::Registry::global().snapshot().to_json();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + (k + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace perfbench
