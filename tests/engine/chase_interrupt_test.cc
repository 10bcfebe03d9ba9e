// Failure-model contract of the chase (ChaseConfig::deadline / ::cancel):
// an expired deadline or a fired cancellation token aborts the run
// cooperatively at any thread count — clean kDeadlineExceeded / kCancelled
// status, pool drained, partial state discarded, never a crash or deadlock.
// The chaos CI jobs run this suite under ASan/UBSan and TSan (ctest -L
// chaos).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "datalog/parser.h"
#include "engine/chase.h"
#include "obs/metrics.h"

namespace templex {
namespace {

Value S(const std::string& s) { return Value::String(s); }

// A transitive-closure workload with a quadratic path count and one round
// per node; at 256 nodes (65k derived paths) it cannot finish before a
// millisecond-scale interruption lands, at any thread count under test.
Program HeavyProgram() {
  return ParseProgram(R"(
base: Edge(x, y) -> Path(x, y).
step: Path(x, z), Edge(z, y) -> Path(x, y).
)")
      .value();
}

std::vector<Fact> HeavyEdb(int nodes) {
  std::vector<Fact> edb;
  for (int i = 0; i < nodes; ++i) {
    edb.push_back({"Edge", {S("N" + std::to_string(i)),
                            S("N" + std::to_string((i + 1) % nodes))}});
  }
  return edb;
}

TEST(ChaseInterruptTest, ExpiredDeadlineFailsCleanly) {
  VirtualClock clock;
  for (int threads : {1, 2, 8}) {
    ChaseConfig config;
    config.num_threads = threads;
    config.deadline = Deadline::AfterMillis(0, &clock);
    auto result = ChaseEngine(config).Run(HeavyProgram(), HeavyEdb(40));
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << "at " << threads << " threads: " << result.status().ToString();
  }
}

TEST(ChaseInterruptTest, RealDeadlineExpiresMidRun) {
  // A 1ms budget against a workload that takes much longer: the run must
  // notice expiry at one of its interruption points and stop.
  for (int threads : {1, 2, 8}) {
    ChaseConfig config;
    config.num_threads = threads;
    config.deadline = Deadline::AfterMillis(1);
    auto result = ChaseEngine(config).Run(HeavyProgram(), HeavyEdb(256));
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << "at " << threads << " threads: " << result.status().ToString();
  }
}

TEST(ChaseInterruptTest, PreCancelledTokenFailsCleanly) {
  for (int threads : {1, 2, 8}) {
    ChaseConfig config;
    config.num_threads = threads;
    config.cancel.Cancel();
    auto result = ChaseEngine(config).Run(HeavyProgram(), HeavyEdb(40));
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << "at " << threads << " threads: " << result.status().ToString();
  }
}

TEST(ChaseInterruptTest, MidRunCancellationFromAnotherThread) {
  // Cancel from a background thread shortly after the run starts. Whether
  // the token fires before entry or mid-round, the status is kCancelled and
  // the engine shuts down without crash, leak, or deadlock — this is the
  // assertion the TSan chaos job exercises.
  for (int threads : {1, 2, 8}) {
    ChaseConfig config;
    config.num_threads = threads;
    CancellationToken token = config.cancel;
    std::thread canceller([token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      token.Cancel();
    });
    auto result = ChaseEngine(config).Run(HeavyProgram(), HeavyEdb(256));
    canceller.join();
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << "at " << threads << " threads: " << result.status().ToString();
  }
}

TEST(ChaseInterruptTest, InterruptionsAreCounted) {
  VirtualClock clock;
  obs::MetricsRegistry registry;
  ChaseConfig config;
  config.metrics = &registry;
  config.deadline = Deadline::AfterMillis(0, &clock);
  EXPECT_FALSE(ChaseEngine(config).Run(HeavyProgram(), HeavyEdb(8)).ok());

  ChaseConfig cancelled_config;
  cancelled_config.metrics = &registry;
  cancelled_config.cancel.Cancel();
  EXPECT_FALSE(
      ChaseEngine(cancelled_config).Run(HeavyProgram(), HeavyEdb(8)).ok());

  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.FindCounter("chase.deadline_exceeded")->value, 1);
  EXPECT_EQ(snapshot.FindCounter("chase.cancelled")->value, 1);
}

TEST(ChaseInterruptTest, ExtendHonoursTheFailureModel) {
  Program program = HeavyProgram();
  std::vector<Fact> edb = HeavyEdb(12);
  ChaseEngine plain_engine{ChaseConfig{}};
  auto base = plain_engine.Run(program, edb);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  VirtualClock clock;
  ChaseConfig config;
  config.deadline = Deadline::AfterMillis(0, &clock);
  ChaseEngine deadline_engine(config);
  auto extended = deadline_engine.Extend(
      base.value(), program, {{"Edge", {S("N12"), S("N0")}}});
  EXPECT_EQ(extended.status().code(), StatusCode::kDeadlineExceeded);

  ChaseConfig cancelled_config;
  cancelled_config.cancel.Cancel();
  ChaseEngine cancelled_engine(cancelled_config);
  auto cancelled = cancelled_engine.Extend(
      base.value(), program, {{"Edge", {S("N12"), S("N0")}}});
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
}

TEST(ChaseInterruptTest, EngineIsReusableAfterAnInterruptedRun) {
  // An aborted run must leave the engine healthy: the same
  // engine completes a normal run afterwards, identical to a fresh one.
  ChaseConfig config;
  config.num_threads = 4;
  CancellationToken token = config.cancel;
  ChaseEngine engine(config);
  token.Cancel();
  EXPECT_EQ(engine.Run(HeavyProgram(), HeavyEdb(24)).status().code(),
            StatusCode::kCancelled);
  // Note: the token stays cancelled forever; a fresh run needs fresh config.
  ChaseConfig fresh;
  fresh.num_threads = 4;
  ChaseEngine fresh_engine(fresh);
  auto rerun = fresh_engine.Run(HeavyProgram(), HeavyEdb(24));
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_GT(rerun.value().stats.derived_facts, 0);
}

TEST(ChaseInterruptTest, InfiniteDefaultsDoNotPerturbTheRun) {
  // Leaving deadline/cancel unset must not change results: same graph size
  // and stats as a run without the failure model compiled in its config.
  auto run = [](ChaseConfig config) {
    auto result = ChaseEngine(config).Run(HeavyProgram(), HeavyEdb(16));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value().stats.derived_facts;
  };
  ChaseConfig defaults;
  ChaseConfig with_far_deadline;
  with_far_deadline.deadline = Deadline::AfterSeconds(3600.0);
  EXPECT_EQ(run(with_far_deadline), run(defaults));
}

}  // namespace
}  // namespace templex
