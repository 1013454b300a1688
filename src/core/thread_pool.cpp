#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmw::core {

namespace {

/// Pool utilization telemetry (ROADMAP: the evidence for the multi-core
/// re-measure item). busy/idle are wall-microsecond integrals per worker;
/// tasks counts queue claims, not parallel_for iterations.
struct PoolMetrics {
  obs::Counter tasks;
  obs::Counter busy_us;
  obs::Counter idle_us;
  static const PoolMetrics& get() {
    static const PoolMetrics m{
        obs::Registry::global().counter("core.pool.tasks"),
        obs::Registry::global().counter("core.pool.busy_us"),
        obs::Registry::global().counter("core.pool.idle_us"),
    };
    return m;
  }
};

}  // namespace

index_t resolve_thread_count(index_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<index_t>(hw) : index_t{1};
}

ThreadPool::ThreadPool(index_t thread_count) {
  const index_t n = resolve_thread_count(thread_count);
  workers_.reserve(n);
  for (index_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  // std::jthread joins on destruction; workers drain the queue first.
}

void ThreadPool::submit(std::function<void()> task) {
  MMW_REQUIRE(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    MMW_REQUIRE_MSG(!stopping_, "submit on a stopping ThreadPool");
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::worker_loop(index_t ordinal) {
  obs::set_thread_ordinal(ordinal);
  for (;;) {
    std::function<void()> task;
    const std::uint64_t wait_start = obs::enabled() ? obs::now_us() : 0;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Gate on the flag captured BEFORE the wait: if obs flipped on while we
    // slept, wait_start is 0 and the interval would be garbage.
    const bool timed = wait_start != 0 && obs::enabled();
    const std::uint64_t run_start = timed ? obs::now_us() : 0;
    if (timed) {
      const PoolMetrics& m = PoolMetrics::get();
      m.tasks.add();
      m.idle_us.add(run_start - wait_start);
    }
    try {
      MMW_TRACE_SCOPE("core.pool.task", "pool");
      task();
    } catch (...) {
      // submit() is fire-and-forget; parallel_for captures its own errors.
    }
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    if (timed) PoolMetrics::get().busy_us.add(obs::now_us() - run_start);
  }
}

void ThreadPool::parallel_for(index_t begin, index_t end,
                              const std::function<void(index_t)>& body) {
  MMW_REQUIRE(begin <= end);
  if (begin == end) return;

  // Per-call shared state; heap-allocated so stray notify-side references
  // stay valid even if the caller unwinds first (they cannot here — the
  // caller blocks until pending hits 0 — but shared_ptr keeps the lambda
  // copyable into N queue slots without lifetime reasoning).
  struct Sync {
    std::atomic<index_t> next;
    std::mutex m;
    std::condition_variable done;
    index_t pending;
    index_t error_index;
    std::exception_ptr error;
  };
  auto sync = std::make_shared<Sync>();
  sync->next.store(begin, std::memory_order_relaxed);
  sync->error_index = end;  // sentinel: no failure recorded

  const index_t tasks = std::min<index_t>(thread_count(), end - begin);
  sync->pending = tasks;

  auto drain = [this, sync, end, &body] {
    // Claim indices until the range is exhausted or an error was recorded.
    for (;;) {
      const index_t i = sync->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) break;
      try {
        body(i);
      } catch (...) {
        // Keep the LOWEST failing index: claims are monotone, so every
        // index below the first failure is already claimed and runs to
        // completion — the min-reduction is timing-independent (see the
        // header's failure-semantics contract).
        std::lock_guard lock(sync->m);
        if (!sync->error || i < sync->error_index) {
          sync->error = std::current_exception();
          sync->error_index = i;
        }
        sync->next.store(end, std::memory_order_relaxed);  // cancel the rest
      }
      heartbeat_.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard lock(sync->m);
    if (--sync->pending == 0) sync->done.notify_all();
  };

  // The calling thread is a worker too: queue tasks-1 helpers, run one
  // drain inline. With a single-thread pool this degenerates to a plain
  // serial loop on the caller (helpers find the range already exhausted).
  for (index_t i = 1; i < tasks; ++i) submit(drain);
  drain();

  // Move the exception out under the lock: a helper may still hold the last
  // reference to `sync`, and must not be the thread that destroys it.
  std::exception_ptr error;
  {
    std::unique_lock lock(sync->m);
    sync->done.wait(lock, [&] { return sync->pending == 0; });
    error = std::move(sync->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace mmw::core
