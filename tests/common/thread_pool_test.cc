// The FIFO pool behind the service's request workers: every submitted task
// runs exactly once, and destruction drains the queue instead of dropping it.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace templex {
namespace {

TEST(ThreadPoolTest, DestructionWithIdleWorkersIsClean) {
  // Construct-and-destroy without ever dispatching: workers must exit.
  for (int i = 0; i < 10; ++i) {
    ThreadPool pool(4);
  }
}

TEST(ThreadPoolTest, SubmittedTasksRunExactlyOnce) {
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  {
    ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&hits, i] { hits[i].fetch_add(1); });
    }
  }  // destructor drains
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ShutdownWithPendingTasksDrainsEveryTask) {
  // Queue far more tasks than workers and destroy immediately: the
  // contract is drain, not drop — every task must have run exactly once
  // by the time the destructor returns, with no deadlock. A gate holds
  // the workers at the first task so the queue is provably non-empty
  // when the destructor starts.
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<bool> gate{false};
  {
    ThreadPool pool(3);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&hits, &gate, i] {
        while (!gate.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
    }
    EXPECT_GT(pool.QueuedTasks(), 0u);
    gate.store(true, std::memory_order_release);
  }
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsSubmittedTasksAtDestruction) {
  std::atomic<int> runs{0};
  {
    ThreadPool pool(1);  // no spawned workers
    pool.Submit([&runs] { runs.fetch_add(1); });
    pool.Submit([&runs] { runs.fetch_add(1); });
    // Nothing runs while the pool is alive — Submit never borrows the
    // calling thread.
    EXPECT_EQ(pool.QueuedTasks(), 2u);
    EXPECT_EQ(runs.load(), 0);
  }
  EXPECT_EQ(runs.load(), 2);
}

TEST(ThreadPoolTest, TasksMaySubmitFurtherTasksDuringDrain) {
  // A task that enqueues follow-up work while the pool is being destroyed:
  // the drain must pick the children up too, on a worker or inline.
  std::atomic<int> runs{0};
  {
    ThreadPool pool(2);
    pool.Submit([&pool, &runs] {
      runs.fetch_add(1);
      pool.Submit([&pool, &runs] {
        runs.fetch_add(1);
        pool.Submit([&runs] { runs.fetch_add(1); });
      });
    });
  }
  EXPECT_EQ(runs.load(), 3);
}

}  // namespace
}  // namespace templex
