// Resource-governor save-and-stop chaos sweep (ISSUE PR 8 acceptance): a
// budgeted, checkpointed run whose fault injector forces a hard-watermark
// trip at every possible observation index must return kResourceExhausted
// with a committed checkpoint, and resuming WITHOUT the budget must
// reproduce the unbudgeted run byte-for-byte — same chase-graph signature,
// DOT rendering, and stats — at 1/2/8 threads.
// Also covers the real (non-injected) hard watermark and the soft-pressure
// degradation ladder, which must stay output-invisible.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/generators.h"
#include "apps/programs.h"
#include "common/fs.h"
#include "common/memory.h"
#include "common/rng.h"
#include "engine/chase.h"
#include "obs/metrics.h"

namespace templex {
namespace {

std::vector<std::string> GraphSignature(const ChaseResult& chase) {
  std::vector<std::string> signature;
  signature.reserve(chase.graph.size());
  const ChaseGraph& graph = chase.graph;
  auto describe = [&graph](std::ostringstream& out, const Derivation& d) {
    out << "|rule=" << d.rule_index << "/" << graph.RuleLabel(d.rule_index)
        << "|theta=" << graph.BindingToString(d.rule_index, d.values)
        << "|parents=";
    for (FactId parent : d.parents) out << parent << ",";
  };
  for (FactId id = 0; id < chase.graph.size(); ++id) {
    const ChaseNode& node = chase.graph.node(id);
    std::ostringstream out;
    out << node.fact.ToString();
    describe(out, node.derivation);
    for (const Derivation& alt : node.alternatives) {
      out << "|alt:";
      describe(out, alt);
    }
    signature.push_back(out.str());
  }
  return signature;
}

void ExpectSameResult(const ChaseResult& actual, const ChaseResult& expected,
                      const std::string& where) {
  EXPECT_EQ(GraphSignature(actual), GraphSignature(expected)) << where;
  EXPECT_EQ(actual.graph.ToDot(), expected.graph.ToDot()) << where;
  EXPECT_EQ(actual.stats.initial_facts, expected.stats.initial_facts) << where;
  EXPECT_EQ(actual.stats.derived_facts, expected.stats.derived_facts) << where;
  EXPECT_EQ(actual.stats.rounds, expected.stats.rounds) << where;
  EXPECT_EQ(actual.stats.matches, expected.stats.matches) << where;
}

std::vector<Fact> ControlNetwork() {
  OwnershipNetworkOptions options;
  options.company_facts = true;
  Rng rng(11);
  return GenerateOwnershipNetwork(options, &rng);
}

ChaseResult RunPlain(const Program& program, const std::vector<Fact>& edb,
                     int threads) {
  ChaseConfig config;
  config.num_threads = threads;
  auto result = ChaseEngine(config).Run(program, edb);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

// The acceptance sweep. Observation indices: 0 fires at run entry (right
// after the round-0 snapshot commits), k >= 1 fires after round k commits
// — one Observe per completed round on the driving thread, so the sweep
// covers every save-and-stop point the engine has.
TEST(BudgetStopTest, EveryTripPointResumesIdenticallyWithoutBudget) {
  const Program program = CompanyControlProgram();
  const std::vector<Fact> edb = ControlNetwork();

  const ChaseResult reference = RunPlain(program, edb, 1);
  ASSERT_GT(reference.stats.rounds, 2);

  for (int threads : {1, 2, 8}) {
    for (int64_t trip = 0; trip <= reference.stats.rounds; ++trip) {
      const std::string where = std::to_string(threads) +
                                " threads, trip at observation " +
                                std::to_string(trip);
      MemFs fs;

      FaultInjectingAllocator::Options fault;
      fault.hard_after_observations = trip;
      FaultInjectingAllocator injector(fault);
      MemoryBudget::Options budget_options;
      budget_options.allocator = &injector;
      MemoryBudget budget(budget_options);

      ChaseConfig killed;
      killed.num_threads = threads;
      killed.budget = &budget;
      killed.checkpoint.fs = &fs;
      killed.checkpoint.dir = "ckpt";
      auto first = ChaseEngine(killed).Run(program, edb);
      ASSERT_FALSE(first.ok()) << where << ": trip did not fire";
      EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted)
          << where << ": " << first.status().ToString();
      EXPECT_GE(injector.injected_failures(), 1) << where;

      // Resume on the "bigger box": same thread count, no budget. The
      // checkpoint config hash must accept it (the budget is an
      // execution-environment knob, not a semantics knob).
      ChaseConfig resumed;
      resumed.num_threads = threads;
      resumed.checkpoint.fs = &fs;
      resumed.checkpoint.dir = "ckpt";
      resumed.checkpoint.resume = true;
      auto second = ChaseEngine(resumed).Run(program, edb);
      ASSERT_TRUE(second.ok()) << where << ": " << second.status().ToString();
      ExpectSameResult(second.value(), reference, where);
    }
  }
}

TEST(BudgetStopTest, RealHardWatermarkTripsAndResumes) {
  // No injector: a hard limit far below the EDB's own footprint trips on
  // the very first reconciliation, from the real byte figure.
  const Program program = CompanyControlProgram();
  const std::vector<Fact> edb = ControlNetwork();
  const ChaseResult reference = RunPlain(program, edb, 1);

  MemFs fs;
  MemoryBudget::Options options;
  options.soft_limit_bytes = 512;
  options.hard_limit_bytes = 1024;
  MemoryBudget budget(options);
  ChaseConfig killed;
  killed.budget = &budget;
  killed.checkpoint.fs = &fs;
  killed.checkpoint.dir = "ckpt";
  auto first = ChaseEngine(killed).Run(program, edb);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(first.status().message().find("max_bytes"), std::string::npos)
      << first.status().ToString();
  EXPECT_GE(budget.peak_bytes(), options.hard_limit_bytes);
  EXPECT_EQ(budget.pressure(), MemoryPressure::kHard);

  ChaseConfig resumed;
  resumed.checkpoint.fs = &fs;
  resumed.checkpoint.dir = "ckpt";
  resumed.checkpoint.resume = true;
  auto second = ChaseEngine(resumed).Run(program, edb);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectSameResult(second.value(), reference, "resume after real hard trip");
}

TEST(BudgetStopTest, SoftPressureDegradesWithoutChangingOutput) {
  // Soft watermark below the initial footprint, hard watermark effectively
  // infinite: every round observes soft pressure, so the run walks the
  // whole degradation ladder (tracer, then event rings) and
  // STILL must produce the reference output — every ladder step is
  // accessory state.
  const Program program = CompanyControlProgram();
  const std::vector<Fact> edb = ControlNetwork();
  const ChaseResult reference = RunPlain(program, edb, 1);
  ASSERT_GT(reference.stats.rounds, 2);

  MemoryBudget::Options options;
  options.soft_limit_bytes = 1;
  options.hard_limit_bytes = 1LL << 40;
  MemoryBudget budget(options);
  obs::MetricsRegistry registry;
  ChaseConfig config;
  config.budget = &budget;
  config.metrics = &registry;
  auto result = ChaseEngine(config).Run(program, edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameResult(result.value(), reference, "soft-degraded run");

  // One upward transition (none -> soft), observed and exported.
  EXPECT_EQ(budget.pressure(), MemoryPressure::kSoft);
  EXPECT_EQ(budget.pressure_events(), 1);
  const obs::MetricsSnapshot& snapshot = result.value().metrics;
  const obs::CounterSnapshot* pressure =
      snapshot.FindCounter("chase.memory.pressure_events");
  ASSERT_NE(pressure, nullptr);
  EXPECT_EQ(pressure->value, 1);
  // Enough soft observations to exhaust the two-step ladder.
  const obs::CounterSnapshot* degrade =
      snapshot.FindCounter("chase.memory.degrade_steps");
  ASSERT_NE(degrade, nullptr);
  EXPECT_EQ(degrade->value, 2);
  // The byte gauges were maintained.
  const obs::GaugeSnapshot* bytes = snapshot.FindGauge("chase.memory.bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->value, 0.0);
  const obs::GaugeSnapshot* peak =
      snapshot.FindGauge("chase.memory.peak_bytes");
  ASSERT_NE(peak, nullptr);
  EXPECT_GE(peak->value, bytes->value);
}

TEST(BudgetStopTest, FootprintIsIdenticalAcrossThreadCountsAndResume) {
  // The accounted footprint is content-based, so the peak figure the budget
  // reports must be byte-identical at 1/2/8 threads — that is what makes
  // the deterministic sweep above meaningful — and a resumed run must end
  // at the same figure as an uninterrupted one.
  const Program program = CompanyControlProgram();
  const std::vector<Fact> edb = ControlNetwork();

  int64_t reference_peak = -1;
  for (int threads : {1, 2, 8}) {
    MemoryBudget budget;  // no limits: pure accounting
    ChaseConfig config;
    config.num_threads = threads;
    config.budget = &budget;
    auto result = ChaseEngine(config).Run(program, edb);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (reference_peak < 0) {
      reference_peak = budget.peak_bytes();
      EXPECT_GT(reference_peak, 0);
    } else {
      EXPECT_EQ(budget.peak_bytes(), reference_peak)
          << "footprint diverged at " << threads << " threads";
    }
  }

  // Kill mid-run via the injector, resume unbudgeted but with a fresh
  // accounting-only budget: the final figure must match.
  MemFs fs;
  FaultInjectingAllocator::Options fault;
  fault.hard_after_observations = 2;
  FaultInjectingAllocator injector(fault);
  MemoryBudget::Options killed_options;
  killed_options.allocator = &injector;
  MemoryBudget killed_budget(killed_options);
  ChaseConfig killed;
  killed.budget = &killed_budget;
  killed.checkpoint.fs = &fs;
  killed.checkpoint.dir = "ckpt";
  auto first = ChaseEngine(killed).Run(program, edb);
  ASSERT_FALSE(first.ok());

  MemoryBudget resumed_budget;
  ChaseConfig resumed;
  resumed.budget = &resumed_budget;
  resumed.checkpoint.fs = &fs;
  resumed.checkpoint.dir = "ckpt";
  resumed.checkpoint.resume = true;
  auto second = ChaseEngine(resumed).Run(program, edb);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(resumed_budget.peak_bytes(), reference_peak)
      << "resumed run's footprint diverged from the uninterrupted run";
}

}  // namespace
}  // namespace templex
