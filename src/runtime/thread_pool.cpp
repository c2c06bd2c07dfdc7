#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace htp {
namespace {

// Set for the whole lifetime of a pool worker thread (WorkerLoop); tasks it
// runs — and anything they call — observe InParallelWorker() == true.
thread_local bool tls_in_parallel_worker = false;

}  // namespace

std::size_t ResolveThreadCount(std::size_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

bool InParallelWorker() { return tls_in_parallel_worker; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this, i] {
      // Name the trace lane by pool index, not by scheduling order: traces
      // from repeated runs line up lane for lane (obs::NameThisThread).
      obs::NameThisThread("worker-" + std::to_string(i));
      WorkerLoop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::WorkerLoop() {
  tls_in_parallel_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

namespace {

// Join state shared by the tasks of one ParallelFor round. Lives on the
// caller's stack; valid because the caller blocks until remaining == 0.
struct ForkJoin {
  std::mutex mutex;
  std::condition_variable done;
  std::size_t remaining = 0;
  std::size_t error_index = 0;  // lowest failing index; init to count
  std::exception_ptr error;
};

}  // namespace

void ParallelFor(ThreadPool& pool, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  ForkJoin join;
  join.remaining = count;
  join.error_index = count;
  const obs::ScopeRef scope = obs::CurrentScope();
  for (std::size_t i = 0; i < count; ++i) {
    pool.Submit([&join, &body, &scope, i] {
      std::exception_ptr error;
      {
        // Leaving the guard flushes the task's records into the caller's
        // scope, before the join below can release the caller.
        obs::ScopeGuard guard(scope);
        try {
          body(i);
        } catch (...) {
          error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(join.mutex);
      if (error && i < join.error_index) {
        join.error_index = i;
        join.error = error;
      }
      if (--join.remaining == 0) join.done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(join.mutex);
  join.done.wait(lock, [&join] { return join.remaining == 0; });
  if (join.error) std::rethrow_exception(join.error);
}

void ParallelFor(std::size_t threads, std::size_t count,
                 const std::function<void(std::size_t)>& body) {
  const std::size_t workers = ResolveThreadCount(threads);
  if (workers <= 1 || count <= 1 || InParallelWorker()) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  ThreadPool pool(std::min(workers, count));
  ParallelFor(pool, count, body);
}

}  // namespace htp
