// A small reusable fork-join thread pool.
//
// Algorithm 1's outer loop — N independent (metric, construction)
// iterations, keep the best — is embarrassingly parallel, and the same
// shape recurs in the benches (independent seeds, independent circuits).
// This pool is the one concurrency primitive the library uses: a fixed set
// of workers draining a FIFO queue, plus a blocking ParallelFor helper.
//
// Determinism contract: the pool itself guarantees nothing about execution
// order. Callers that need bit-identical results regardless of thread count
// (RunHtpFlow does) must give every task its own pre-forked RNG stream and
// its own output slot, then reduce the slots in index order afterwards.
// ParallelFor supports this by propagating the exception of the *lowest*
// failing index, so even error behaviour is schedule-independent.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace htp {

/// Maps a user-facing thread-count knob to a worker count: 0 means "all
/// hardware threads" (std::thread::hardware_concurrency(), at least 1);
/// any other value is taken literally.
std::size_t ResolveThreadCount(std::size_t requested);

/// True while the calling thread is a ThreadPool worker. Nested parallelism
/// guard: code that may run both standalone and inside a pool task (e.g.
/// Algorithm 2's candidate scan inside a parallel FLOW iteration) checks
/// this to degrade its inner fan-out to serial instead of oversubscribing
/// the machine with pools-within-pools. The convenience ParallelFor
/// overload below applies the guard automatically.
bool InParallelWorker();

/// Fixed-size pool of worker threads draining a FIFO task queue. Workers
/// start in the constructor and are reused across any number of Submit /
/// ParallelFor rounds; the destructor drains the remaining queue, then
/// joins every worker.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not block waiting for other queued tasks
  /// (the pool has no work stealing, so that can deadlock). The task runs
  /// under the obs run scope active on the submitting thread, so journal
  /// records made inside a ParallelFor land in the run that forked it.
  void Submit(std::function<void()> task);

 private:
  struct Task {
    std::function<void()> run;
    obs::ScopeRef scope;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
};

/// Fork-join: runs body(i) for every i in [0, count) on the pool and blocks
/// until all invocations finished. Every task runs to completion even when
/// another throws; if any threw, the exception of the lowest failing index
/// is rethrown here and the others are discarded.
void ParallelFor(ThreadPool& pool, std::size_t count,
                 const std::function<void(std::size_t)>& body);

/// Convenience wrapper. ResolveThreadCount(threads) <= 1, count <= 1, or a
/// calling thread that is itself a pool worker (InParallelWorker) runs
/// body(0), body(1), ... serially on the calling thread with no pool and no
/// synchronization — the exact pre-parallelism code path; otherwise a
/// transient pool of min(threads, count) workers is used.
void ParallelFor(std::size_t threads, std::size_t count,
                 const std::function<void(std::size_t)>& body);

}  // namespace htp
