// A small fixed-size thread pool for data-parallel Monte-Carlo work.
//
// Design constraints (see DESIGN.md §7):
//  - no external dependencies: C++20 std::jthread + mutex/condition_variable;
//  - no work stealing: one shared FIFO queue is plenty when tasks are
//    coarse (a whole Monte-Carlo trial each) — contention on the queue is
//    negligible next to the milliseconds a trial costs;
//  - determinism lives in the *caller*: the pool makes no ordering promises
//    about execution, so callers that need reproducible output must write
//    results into per-index slots and reduce in index order. Engines do not
//    call the pool directly: they go through core::run_shards
//    (core/shards.h), which adds the serial path and trial quarantine.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "linalg/common.h"

namespace mmw::core {

/// Returns the thread count a knob value of 0 ("auto") resolves to:
/// std::thread::hardware_concurrency(), clamped to at least 1.
index_t resolve_thread_count(index_t requested);

/// Fixed-size thread pool. Threads are started in the constructor and
/// joined in the destructor; there is no dynamic resizing.
///
/// Thread-safety: submit() and parallel_for() may be called from any
/// thread, including concurrently. Tasks must not themselves call
/// parallel_for() on the same pool (no nested parallelism — a task waiting
/// on the pool it runs in would deadlock).
class ThreadPool {
 public:
  /// Starts `thread_count` workers; 0 means resolve_thread_count(0)
  /// (hardware concurrency).
  explicit ThreadPool(index_t thread_count = 0);

  /// Drains nothing: tasks still queued are executed before shutdown
  /// completes (the destructor signals stop and joins all workers).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  index_t thread_count() const { return workers_.size(); }

  /// Enqueues a fire-and-forget task. Exceptions escaping `task` are
  /// swallowed by the worker (use parallel_for when you need propagation).
  void submit(std::function<void()> task);

  /// Runs body(i) for every i in [begin, end) across the pool and blocks
  /// until all iterations finished. Iterations are claimed dynamically, so
  /// execution order is unspecified; side effects must go to per-index
  /// storage. An empty range returns immediately without touching the
  /// queue.
  ///
  /// Failure semantics: the exception rethrown on the calling thread is
  /// DETERMINISTICALLY the one from the lowest-index failing iteration, so
  /// failure reports are thread-count invariant. Why this holds: indices
  /// are claimed in ascending order from one atomic counter, so by the
  /// time any iteration g fails, every index below g has already been
  /// claimed and will run to completion before the call returns — the
  /// lowest failing index is therefore always among the iterations that
  /// ran, and a min-index reduction over recorded failures picks it
  /// regardless of timing. The first failure still cancels all
  /// *unclaimed* iterations (they are above every claimed index, hence
  /// above the minimum, and cannot affect it).
  void parallel_for(index_t begin, index_t end,
                    const std::function<void(index_t)>& body);

  /// Monotone progress counter: bumped once per completed parallel_for
  /// iteration and per drained submit() task.
  /// The obs::Watchdog reads this (plus the engine's own counters) to tell
  /// "slow epoch" from "wedged pool" — any forward motion anywhere in the
  /// pool resets the stall clock. Safe to read from any thread.
  std::uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }

 private:
  /// `ordinal` is the 1-based worker index, reported to obs as the thread
  /// ordinal so metric shards and trace buffers merge in a stable order
  /// (the caller thread keeps ordinal 0).
  void worker_loop(index_t ordinal);

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::atomic<std::uint64_t> heartbeat_{0};
  std::vector<std::jthread> workers_;
};

}  // namespace mmw::core
