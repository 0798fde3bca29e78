// Process-wide shared worker pools (DESIGN.md §9).
//
// Solvers used to construct a throwaway ThreadPool per call, which paid
// thread spawn/join on every greedy iteration and meant the engine's
// cached GraphSession::pool() was never used by the hot path. Callers
// that hold a pool (the engine session) now inject it via
// CfcmOptions::pool; everyone else shares a lazily-created,
// process-lifetime pool per requested size from this registry.
#ifndef CFCM_RUNTIME_SHARED_POOL_H_
#define CFCM_RUNTIME_SHARED_POOL_H_

#include "common/thread_pool.h"

namespace cfcm {

/// \brief The process-wide pool with `num_threads` workers
/// (<= 0 resolves to DefaultPoolWorkers(), matching
/// CfcmOptions::num_threads semantics).
///
/// Pools are created on first use, cached per resolved size, and live for
/// the process (results are thread-count-invariant, so sharing a pool
/// across callers never changes any output). Thread-safe.
ThreadPool& SharedThreadPool(int num_threads = 0);

}  // namespace cfcm

#endif  // CFCM_RUNTIME_SHARED_POOL_H_
