// Rule-admission tests: rule executions none of whose semi-naive passes
// has a pivot row are skipped without matching (chase.join.skipped_rules >
// 0 on company control), the skip/execute totals are identical at 1, 2 and
// 8 threads, and a run killed at any round and resumed from its checkpoint
// reproduces the uninterrupted run's chase graph and chase.join.* totals.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/generators.h"
#include "apps/programs.h"
#include "common/fs.h"
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

std::vector<Fact> ControlNetwork(uint64_t seed) {
  OwnershipNetworkOptions options;
  options.company_facts = true;
  Rng rng(seed);
  return GenerateOwnershipNetwork(options, &rng);
}

ChaseResult RunWith(const Program& program, const std::vector<Fact>& edb,
                    int threads, obs::MetricsRegistry* metrics) {
  ChaseConfig config;
  config.num_threads = threads;
  config.metrics = metrics;
  auto result = ChaseEngine(config).Run(program, edb);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::map<std::string, int64_t> JoinCounters(const ChaseResult& result) {
  std::map<std::string, int64_t> counters;
  for (const obs::CounterSnapshot& c : result.metrics.counters) {
    if (c.name.rfind("chase.join.", 0) == 0 ||
        c.name.rfind("chase.index.", 0) == 0) {
      counters[c.name] = c.value;
    }
  }
  return counters;
}

TEST(TriggerGraphTest, CompanyControlSkipsRedundantRuleExecutions) {
  // The acceptance counter: sigma1/sigma2-style rules whose body predicates
  // stop growing after the first rounds must be skipped without matching.
  obs::MetricsRegistry registry;
  const ChaseResult result =
      RunWith(CompanyControlProgram(), ControlNetwork(11), 1, &registry);
  const auto counters = JoinCounters(result);
  EXPECT_GT(counters.at("chase.join.skipped_rules"), 0);
  EXPECT_GT(counters.at("chase.join.executed_rules"), 0);
  EXPECT_EQ(counters.at("chase.join.skipped_rules"),
            result.stats.skipped_rules);
  EXPECT_EQ(counters.at("chase.join.executed_rules"),
            result.stats.executed_rules);
}

TEST(TriggerGraphTest, ExtendCountsItsOwnExecutions) {
  // Every round plans each rule of the (single) stratum once, so the
  // totals are rules x rounds; an Extend counts only its own rounds.
  const Program program = CompanyControlProgram();
  const int64_t rules = static_cast<int64_t>(program.rules().size());
  const ChaseResult base = RunWith(program, ControlNetwork(11), 1, nullptr);
  EXPECT_EQ(base.stats.skipped_rules + base.stats.executed_rules,
            rules * base.stats.rounds);

  obs::MetricsRegistry registry;
  ChaseConfig config;
  config.metrics = &registry;
  const int64_t base_rounds = base.stats.rounds;
  auto extended = ChaseEngine(config).Extend(
      base, program,
      {Fact{"Own", {Value::String("NewCo"), Value::String("Banca0"),
                    Value::Double(0.9)}}});
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  const ChaseStats& stats = extended.value().stats;
  EXPECT_GT(stats.rounds, base_rounds);
  EXPECT_EQ(stats.skipped_rules + stats.executed_rules,
            rules * (stats.rounds - base_rounds));
  const auto counters = JoinCounters(extended.value());
  EXPECT_EQ(counters.at("chase.join.skipped_rules"), stats.skipped_rules);
  EXPECT_EQ(counters.at("chase.join.executed_rules"), stats.executed_rules);
}

TEST(TriggerGraphTest, SkipDecisionsIdenticalAcrossThreadCounts) {
  // Executions are planned and counted on the driving thread, once per
  // (rule, round), so the totals cannot depend on how matching fans out.
  const Program program = CompanyControlProgram();
  const std::vector<Fact> edb = ControlNetwork(13);
  obs::MetricsRegistry reference_registry;
  const ChaseResult reference = RunWith(program, edb, 1, &reference_registry);
  for (int threads : {2, 8}) {
    obs::MetricsRegistry registry;
    const ChaseResult parallel = RunWith(program, edb, threads, &registry);
    EXPECT_EQ(JoinCounters(parallel), JoinCounters(reference))
        << "join counters diverged at " << threads << " threads";
    EXPECT_EQ(parallel.stats.skipped_rules, reference.stats.skipped_rules);
    EXPECT_EQ(parallel.stats.executed_rules, reference.stats.executed_rules);
  }
}

TEST(TriggerGraphTest, ResumedRunReproducesTriggerGraph) {
  // Kill a checkpointed run at every round, resume it, and require the
  // resumed run to reproduce the uninterrupted run's chase graph and
  // chase.join.* totals exactly — the totals travel in the checkpoint
  // cursor's ChaseStats.
  const Program program = CompanyControlProgram();
  const std::vector<Fact> edb = ControlNetwork(11);

  obs::MetricsRegistry reference_registry;
  const ChaseResult reference = RunWith(program, edb, 1, &reference_registry);
  ASSERT_GT(reference.stats.rounds, 2);

  for (int64_t kill = 1; kill < reference.stats.rounds; ++kill) {
    MemFs fs;
    ChaseConfig killed;
    killed.max_rounds = kill;
    killed.checkpoint.fs = &fs;
    killed.checkpoint.dir = "ckpt";
    auto first = ChaseEngine(killed).Run(program, edb);
    ASSERT_FALSE(first.ok()) << "kill at round " << kill << " did not fire";

    obs::MetricsRegistry registry;
    ChaseConfig resumed;
    resumed.checkpoint.fs = &fs;
    resumed.checkpoint.dir = "ckpt";
    resumed.checkpoint.resume = true;
    resumed.metrics = &registry;
    auto second = ChaseEngine(resumed).Run(program, edb);
    ASSERT_TRUE(second.ok())
        << "kill " << kill << ": " << second.status().ToString();
    EXPECT_EQ(JoinCounters(second.value()), JoinCounters(reference))
        << "join counters diverged resuming from round " << kill;
    EXPECT_EQ(second.value().stats.skipped_rules,
              reference.stats.skipped_rules)
        << "skipped rules diverged resuming from round " << kill;
    EXPECT_EQ(second.value().stats.executed_rules,
              reference.stats.executed_rules)
        << "executed rules diverged resuming from round " << kill;
    EXPECT_EQ(GraphSignature(second.value()), GraphSignature(reference));
  }
}

}  // namespace
}  // namespace templex
