#pragma once
// Deterministic thread-parallel helpers for the GP training and
// acquisition/prediction hot paths.
//
// Thread count comes from the KATO_THREADS environment variable (default 1 =
// fully sequential, matching the library's historical behavior).  Work is
// split into contiguous index ranges so a function that writes result[i] for
// each i produces bit-identical output at any thread count — the property the
// MACE proposal path and the parallel MultiGp fit rely on
// (tests/perf_regression_test.cpp asserts it).
//
// Workers live in a persistent process-wide pool: the first parallel_for call
// spawns them and later calls reuse them, so the per-call cost is a wakeup
// instead of a thread spawn+join.  The pool runs several jobs at once: a
// parallel_for called from inside a chunk hands its chunks to idle workers,
// and its caller helps only jobs newer than its own while it waits, so the
// waits cannot cycle and nesting cannot deadlock.  Chunk boundaries depend
// only on n and thread_count(), never on nesting or on which thread runs a
// chunk, so a nested call is as bit-identical as a top-level one.

#include <cstddef>
#include <functional>

namespace kato::util {

/// Upper bound for thread_count(): max(hardware_concurrency, 4).  The floor
/// of 4 keeps deliberate oversubscription possible on small CI boxes, where
/// the bit-identical-at-any-thread-count tests would otherwise silently
/// degenerate to the sequential path.  Computed once per process.
std::size_t thread_cap();

/// Worker count from KATO_THREADS (util/env.hpp), clamped to
/// [1, thread_cap()].  Unset means 1 (sequential); an unusable value also
/// means 1, with one stderr warning.  Read on every call so tests can flip
/// the knob with setenv().
std::size_t thread_count();

/// Invoke fn(begin, end) over a partition of [0, n) using thread_count()
/// workers.  Runs inline as fn(0, n) when the worker count is 1 or n < 2;
/// otherwise it may be called from any thread, a pool worker included.  fn
/// must only write state disjoint across index ranges.  Exceptions thrown by
/// fn are rethrown in the caller (first failing chunk wins).
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace kato::util
