// ThreadPool: a fixed set of worker threads behind a task queue, shared by
// every parallel scan in the process (engine-wide, not per-query: morsel
// execution is short-lived and pool churn would dominate it).
//
// Tasks must be self-contained — a task never blocks on another task's
// completion, so a pool of any size makes progress. Parallel scans submit
// one self-draining morsel loop per worker and the *calling* thread claims
// workers too, so a query is never stalled waiting for a free pool slot or
// for a pool thread to wake up.

#ifndef SELTRIG_COMMON_THREAD_POOL_H_
#define SELTRIG_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace seltrig {

class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues `fn` for execution on some pool thread.
  void Submit(std::function<void()> fn) SELTRIG_EXCLUDES(mutex_);

  // Runs fn(0) .. fn(n-1), each exactly once: the calling thread and n-1
  // pool tasks claim indexes in turn, so an index no pool thread has reached
  // by the time the caller is free runs inline. Returns after every
  // invocation has finished. With n <= 1 this degenerates to a plain inline
  // call (no synchronization at all).
  void RunAndWait(int n, const std::function<void(int)>& fn);

  // Process-wide pool, sized for the engine's maximum supported parallelism
  // (at least ExecOptions::num_threads worth of workers even on small
  // machines, so thread-count differentials exercise real concurrency
  // everywhere). Created on first use; lives for the process.
  static ThreadPool& Shared();

 private:
  void WorkerLoop() SELTRIG_EXCLUDES(mutex_);

  // Immutable after construction (only joined by the destructor).
  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::deque<std::function<void()>> queue_ SELTRIG_GUARDED_BY(mutex_);
  // Waited on with mutex_ held (condition_variable_any over the annotated
  // Mutex; see common/mutex.h).
  std::condition_variable_any cv_;
  bool stop_ SELTRIG_GUARDED_BY(mutex_) = false;
};

}  // namespace seltrig

#endif  // SELTRIG_COMMON_THREAD_POOL_H_
