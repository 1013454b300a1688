#include "core/shards.h"

#include <algorithm>
#include <exception>
#include <mutex>

#include "obs/flight.h"
#include "obs/obs.h"

namespace mmw::core {

std::unique_ptr<ThreadPool> make_pool(index_t requested_threads, index_t n) {
  const index_t threads = std::min(resolve_thread_count(requested_threads), n);
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

std::vector<IterationFailure> run_shards(
    ThreadPool* pool, index_t n, OnFailure on_failure,
    const std::function<void(index_t)>& body) {
  if (on_failure == OnFailure::kPropagate) {
    if (pool != nullptr && n > 1) {
      pool->parallel_for(0, n, body);
    } else {
      for (index_t i = 0; i < n; ++i) body(i);
    }
    return {};
  }

  std::mutex mutex;
  std::vector<IterationFailure> failures;
  run_shards(pool, n, OnFailure::kPropagate, [&](index_t i) {
    try {
      body(i);
    } catch (const std::exception& e) {
      const std::lock_guard lock(mutex);
      failures.push_back({i, e.what()});
    } catch (...) {
      const std::lock_guard lock(mutex);
      failures.push_back({i, "unknown exception"});
    }
  });
  // Capture order is timing-dependent; the sorted list is not.
  std::sort(failures.begin(), failures.end(),
            [](const IterationFailure& a, const IterationFailure& b) {
              return a.index < b.index;
            });
  // A quarantined failure is exactly the anomaly the flight recorder
  // exists for: snapshot the last K spans per thread while the evidence is
  // fresh. Gated on obs::enabled() so bare runs (and fault-injection tests
  // that expect silence) don't emit dump files; the recorder itself caps
  // dumps per process either way.
  if (!failures.empty() && obs::enabled())
    obs::FlightRecorder::global().dump("quarantined_iteration");
  return failures;
}

}  // namespace mmw::core
