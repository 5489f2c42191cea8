#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>

namespace seltrig {

ThreadPool::ThreadPool(int threads) {
  workers_.reserve(static_cast<size_t>(std::max(0, threads)));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      // Explicit wait loop (not the predicate overload): the analysis treats
      // mutex_ as held across the wait, which matches how guarded state must
      // be re-checked after every wakeup.
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    MutexLock lock(&mutex_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::RunAndWait(int n, const std::function<void(int)>& fn) {
  if (n <= 1) {
    if (n == 1) fn(0);
    return;
  }
  // Pool tasks are claim tokens: each runs the next unclaimed index, and so
  // does the caller, so the caller never waits for a pool thread that has not
  // woken up yet. A token that wakes after every index is claimed touches
  // only `state`, which it co-owns; it never calls fn.
  struct State {
    std::atomic<int> next{0};
    std::mutex mutex;
    std::condition_variable done;
    int finished = 0;  // indexes whose fn returned; guarded by mutex
  };
  auto state = std::make_shared<State>();
  auto drain = [state, &fn, n] {
    for (int i = state->next.fetch_add(1); i < n; i = state->next.fetch_add(1)) {
      fn(i);
      std::lock_guard<std::mutex> lock(state->mutex);
      if (++state->finished == n) state->done.notify_one();
    }
  };
  for (int i = 1; i < n; ++i) Submit(drain);
  drain();
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] { return state->finished == n; });
}

ThreadPool& ThreadPool::Shared() {
  // Deliberately leaked: pool threads must outlive every static destructor
  // that could still run a query. At least 8 workers regardless of core
  // count so thread-count differential tests exercise real concurrency on
  // small machines (oversubscription is correctness-neutral).
  static ThreadPool* pool = new ThreadPool(
      std::max(8, static_cast<int>(std::thread::hardware_concurrency())));
  return *pool;
}

}  // namespace seltrig
