// Long differential sweep for query-driven evaluation, labeled `chaos` in
// tests/CMakeLists.txt: every company of a saturated ownership network is
// point-queried forced query-driven and under the auto plan across thread
// counts, and the deadline / cancellation / budget integration of the
// evaluator is exercised the way the chase's own interruption tests do it.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/generators.h"
#include "apps/programs.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "engine/chase.h"
#include "engine/query.h"

namespace templex {
namespace {

Value S(const std::string& s) { return Value::String(s); }
Value N() { return Value::Null(); }

std::vector<std::string> Filter(const ChaseResult& chase,
                                const Fact& pattern) {
  std::vector<std::string> matches;
  for (FactId id : chase.graph.FactsOf(pattern.predicate)) {
    const Fact& fact = chase.graph.node(id).fact;
    if (fact.arity() != pattern.arity()) continue;
    bool ok = true;
    for (int i = 0; i < pattern.arity() && ok; ++i) {
      if (!pattern.args[i].is_null()) ok = pattern.args[i] == fact.args[i];
    }
    if (ok) matches.push_back(fact.ToString());
  }
  return matches;
}

TEST(QueryChaosSweepTest, EveryCompanyPointQuery) {
  Rng rng(29);
  OwnershipNetworkOptions options;
  options.companies = 50;
  options.noise_edges = 80;
  options.company_facts = true;
  Program program = CompanyControlProgram();
  std::vector<Fact> edb = GenerateOwnershipNetwork(options, &rng);
  for (int threads : {1, 4}) {
    ChaseConfig config;
    config.num_threads = threads;
    auto full = ChaseEngine(config).Run(program, edb);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    for (int c = 0; c < options.companies; ++c) {
      Fact goal{"Control", {S(CompanyName(c)), N()}};
      // Forced query-driven, and auto, which plans the goal itself.
      for (EvalMode mode : {EvalMode::kQsqr, EvalMode::kAuto}) {
        auto query = QueryEvaluator(config).Evaluate(program, edb, goal, mode);
        ASSERT_TRUE(query.ok()) << query.status().ToString();
        std::vector<std::string> got;
        for (const Fact& fact : query.value().answers) {
          got.push_back(fact.ToString());
        }
        EXPECT_EQ(got, Filter(full.value(), goal))
            << "threads=" << threads << " mode=" << EvalModeName(mode)
            << " goal=" << goal.ToString();
      }
    }
  }
}

TEST(QueryChaosSweepTest, ExpiredDeadlineAborts) {
  Rng rng(31);
  OwnershipNetworkOptions options;
  options.companies = 40;
  Program program = CompanyControlProgram();
  std::vector<Fact> edb = GenerateOwnershipNetwork(options, &rng);
  ChaseConfig config;
  config.deadline = Deadline::AfterMillis(0);
  auto query = QueryEvaluator(config).Evaluate(
      program, edb, {"Control", {S(CompanyName(0)), N()}});
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryChaosSweepTest, PreCancelledTokenAborts) {
  Rng rng(37);
  OwnershipNetworkOptions options;
  options.companies = 40;
  Program program = CompanyControlProgram();
  std::vector<Fact> edb = GenerateOwnershipNetwork(options, &rng);
  ChaseConfig config;
  config.cancel.Cancel();
  auto query = QueryEvaluator(config).Evaluate(
      program, edb, {"Control", {S(CompanyName(0)), N()}});
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kCancelled);
}

TEST(QueryChaosSweepTest, TinyFactBudgetFallsBackOrExhausts) {
  // With max_facts too small for even the relevance tables, the evaluator
  // falls back to materialization — which then trips the same guard rail
  // the full chase enforces. Either way no wrong answer escapes.
  Rng rng(41);
  OwnershipNetworkOptions options;
  options.companies = 40;
  Program program = CompanyControlProgram();
  std::vector<Fact> edb = GenerateOwnershipNetwork(options, &rng);
  ChaseConfig config;
  config.max_facts = 4;
  auto query = QueryEvaluator(config).Evaluate(
      program, edb, {"Control", {S(CompanyName(0)), N()}});
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace templex
