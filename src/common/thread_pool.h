#ifndef TEMPLEX_COMMON_THREAD_POOL_H_
#define TEMPLEX_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace templex {

// A fixed set of worker threads pulling fire-and-forget tasks from one FIFO
// queue (the service's request handlers ride on it). Shutdown-with-pending-
// tasks semantics are part of the contract and pinned by
// tests/common/thread_pool_test.cc: every task submitted before the
// destructor returns runs EXACTLY once — the destructor drains the queue
// (workers keep pulling queued tasks after stop is signalled, and a pool
// whose workers already exited, including the zero-worker pool, runs the
// leftovers inline on the destructing thread) — so destruction never
// deadlocks and never drops a task silently. Tasks must complete for
// destruction to return; long-running tasks need their own cancellation
// signal (the service cancels in-flight requests before tearing the pool
// down). Tasks may Submit() further tasks, including during the drain.
class ThreadPool {
 public:
  // Spawns `num_threads - 1` workers; num_threads <= 1 spawns nothing.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues one task (FIFO) for the spawned workers and returns
  // immediately. `task` must not throw. With no spawned workers the task
  // stays queued until destruction, which runs it inline — Submit never
  // runs the task on the calling thread while the pool is alive, so
  // callers can hold locks across it.
  void Submit(std::function<void()> task);

  // Tasks submitted but not yet started (test/ops introspection).
  size_t QueuedTasks() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: a task arrived or stop
  std::deque<std::function<void()>> submitted_;  // FIFO Submit() queue
  bool stop_ = false;
};

}  // namespace templex

#endif  // TEMPLEX_COMMON_THREAD_POOL_H_
