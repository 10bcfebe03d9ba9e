#include "common/thread_pool.h"

#include <algorithm>

namespace templex {

ThreadPool::ThreadPool(int num_threads) {
  const int spawned = std::max(0, num_threads - 1);
  workers_.reserve(spawned);
  for (int i = 0; i < spawned; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  // Workers drain the Submit queue before exiting (WorkerLoop pops queued
  // tasks even after stop is signalled), so joining here already covers
  // every task a worker could reach.
  for (std::thread& worker : workers_) worker.join();
  // Leftovers — the zero-worker pool's whole queue, plus any task submitted
  // after the last worker exited — run inline: shutdown with pending tasks
  // must not drop work silently.
  while (true) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (submitted_.empty()) break;
      task = std::move(submitted_.front());
      submitted_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    submitted_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

size_t ThreadPool::QueuedTasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_.size();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !submitted_.empty(); });
      // Queued tasks win over stop: the shutdown contract is drain, not
      // drop, so a stopping worker keeps pulling until the queue is dry.
      if (submitted_.empty()) return;  // stop_, nothing pending
      task = std::move(submitted_.front());
      submitted_.pop_front();
    }
    task();
  }
}

}  // namespace templex
