// The one shard runner every engine fans its work out through.
//
// An engine splits a run into n independent shards (a Monte-Carlo trial, a
// (cell, trial) pair, a (site, slab) pair, a (tracker, user) pair), writes
// each shard's result into its own slot, and reduces the slots in index
// order afterwards. run_shards owns everything between: the serial/pool
// choice and what a throwing shard does (DESIGN.md §7, §11). Because every
// shard draws from its own key-derived Rng stream, the results are the same
// at any thread count.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_pool.h"

namespace mmw::core {

/// What run_shards does with a shard that throws.
enum class OnFailure {
  /// Rethrow on the caller: deterministically the lowest-index failure
  /// (see ThreadPool::parallel_for).
  kPropagate,
  /// Run every shard regardless; capture each failure and return it.
  kQuarantine,
};

/// One captured shard failure of run_shards(…, kQuarantine, …).
struct IterationFailure {
  index_t index = 0;     ///< the shard that threw
  std::string message;   ///< what() of the thrown exception
};

/// The pool for `n` shards at a thread knob of `requested_threads`
/// (0 = auto): sized min(resolve_thread_count(requested_threads), n), and
/// null when that is one thread — run_shards then runs on the caller.
std::unique_ptr<ThreadPool> make_pool(index_t requested_threads, index_t n);

/// Runs body(i) for every shard i in [0, n): across `pool`, or inline on
/// the caller when `pool` is null or n ≤ 1. Side effects must go to
/// per-shard slots.
///
/// kPropagate returns empty or rethrows the lowest-index failure.
/// kQuarantine never throws a shard's exception: it returns every failure
/// sorted by index — a pure function of `body`, so the same shards are
/// excluded at every thread count — and, when obs is enabled, dumps the
/// flight recorder once ("quarantined_iteration") if any shard failed.
std::vector<IterationFailure> run_shards(
    ThreadPool* pool, index_t n, OnFailure on_failure,
    const std::function<void(index_t)>& body);

}  // namespace mmw::core
