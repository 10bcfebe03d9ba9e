// Planner choice under kAuto (engine/query.h): every eligible goal with a
// bound argument runs query-driven, with no budget — measured against the
// semi-naive relevance pass, abandoning it to materialize never paid
// (DESIGN.md §12). Over the 100-company ownership recipe of
// bench_micro_engine (every subject) and bound goals of the other
// financial applications, this pins
//   - the verdict: auto stays query-driven on every goal;
//   - answers and the first answer's explanation equal the full chase's;
//   - auto collects the forced run's relevant set;
//   - every forced relevant-EDB count, recorded from the naive relevance
//     pass this semi-naive one replaced — the proof both compute the same
//     cone.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/generators.h"
#include "apps/glossaries.h"
#include "apps/programs.h"
#include "common/rng.h"
#include "datalog/parser.h"
#include "engine/chase.h"
#include "engine/query.h"
#include "explain/explainer.h"
#include "obs/metrics.h"

namespace templex {
namespace {

Value S(const std::string& s) { return Value::String(s); }
Value N() { return Value::Null(); }

struct Case {
  std::string name;
  Program program;
  DomainGlossary glossary;
  std::vector<Fact> edb;
  std::vector<Fact> goals;
};

// Distinct string arguments at `position` of the facts of `predicate`, in
// sorted order.
std::vector<std::string> Entities(const std::vector<Fact>& edb,
                                  const std::string& predicate,
                                  int position) {
  std::set<std::string> names;
  for (const Fact& fact : edb) {
    if (fact.predicate == predicate) {
      names.insert(fact.args[position].string_value());
    }
  }
  return {names.begin(), names.end()};
}

std::vector<Case> Cases() {
  std::vector<Case> cases;

  OwnershipNetworkOptions ownership;
  ownership.companies = 100;
  ownership.chains = 11;
  ownership.chain_length = 5;
  ownership.stars = 7;
  ownership.noise_edges = 50;
  Rng ownership_rng(7);
  Case control{"company_control", CompanyControlProgram(),
               CompanyControlGlossary(),
               GenerateOwnershipNetwork(ownership, &ownership_rng), {}};
  for (const std::string& subject : Entities(control.edb, "Own", 0)) {
    control.goals.push_back({"Control", {S(subject), N()}});
  }

  // Golden power over the same network: every third company strategic,
  // every fourth foreign, every fifth acquiring another.
  Case golden{"golden_power", GoldenPowerProgram(), GoldenPowerGlossary(),
              control.edb, {}};
  const std::vector<std::string> companies = Entities(control.edb, "Own", 0);
  for (size_t i = 0; i < companies.size(); ++i) {
    const std::string& c = companies[i];
    if (i % 3 == 0) golden.edb.push_back({"Strategic", {S(c)}});
    if (i % 4 == 1) {
      golden.edb.push_back({"Foreign", {S(c)}});
      golden.goals.push_back({"GoldenPower", {S(c), N()}});
    }
    if (i % 5 == 2) {
      golden.edb.push_back(
          {"Acquisition",
           {S(c), S(companies[(i * 7 + 3) % companies.size()]),
            S("2026-01-15")}});
      golden.goals.push_back({"Review", {S(c), N(), N()}});
    }
  }

  DebtNetworkOptions debts;
  Rng debt_rng(11);
  Case simplified{"simplified_stress_test", SimplifiedStressTestProgram(),
                  SimplifiedStressTestGlossary(),
                  GenerateDebtNetwork(debts, &debt_rng), {}};
  for (const std::string& bank : Entities(simplified.edb, "HasCapital", 0)) {
    simplified.goals.push_back({"Default", {S(bank)}});
  }

  Rng cascade_rng(3);
  SampledInstance cascade = SampleStressCascade(5, 2, &cascade_rng);
  Case stress{"stress_test", StressTestProgram(), StressTestGlossary(),
              cascade.edb, {}};
  for (const std::string& bank : Entities(stress.edb, "HasCapital", 0)) {
    stress.goals.push_back({"Default", {S(bank)}});
  }

  OwnershipDagOptions dag;
  dag.layers = 5;
  dag.width = 4;
  Rng dag_rng(5);
  Case close{"close_links", CloseLinksProgram(), CloseLinksGlossary(),
             GenerateOwnershipDag(dag, &dag_rng), {}};
  for (const std::string& owner : Entities(close.edb, "Own", 0)) {
    close.goals.push_back({"CloseLink", {S(owner), N()}});
  }

  cases.push_back(std::move(control));
  cases.push_back(std::move(golden));
  cases.push_back(std::move(simplified));
  cases.push_back(std::move(stress));
  cases.push_back(std::move(close));
  return cases;
}

// Forced-QSQR relevant EDB facts per goal, in Cases() order.
const std::vector<int64_t> kPinned = {
    // company_control
    92, 38, 3, 1, 1, 36, 36, 52, 46, 95, 92, 36, 92, 1, 100, 36, 92, 3, 94,
    49, 92, 49, 1, 1, 37, 1, 36, 56, 3, 43, 53, 1, 40, 8, 3, 1, 49, 49, 93,
    9, 55, 1, 37, 38, 36, 52, 92, 54, 1, 36, 1, 1, 2, 2, 92, 36, 1, 36, 36,
    1, 92, 1, 36, 92, 2, 1, 1, 92, 4, 1, 42, 1,
    // golden_power
    44, 3, 42, 60, 111, 107, 1, 3, 3, 58, 1, 1, 64, 49, 45, 10, 58, 58, 1,
    42, 61, 63, 42, 2, 2, 42, 42, 1, 41, 1, 107, 1,
    // simplified_stress_test
    31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31,
    31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31,
    // stress_test
    8, 8, 8,
    // close_links
    7, 29, 28, 11, 2, 24, 3, 21, 32, 11, 6, 22, 3, 17, 2, 21,
};

std::vector<std::string> Filter(const ChaseResult& chase,
                                const Fact& pattern) {
  std::vector<std::string> out;
  for (const Fact& fact : chase.Match(pattern)) out.push_back(fact.ToString());
  return out;
}

TEST(QueryPlannerChoiceTest, BoundGoalsRunQueryDriven) {
  size_t pinned = 0;
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    auto explainer = Explainer::Create(c.program, c.glossary);
    ASSERT_TRUE(explainer.ok()) << explainer.status().ToString();
    auto full = ChaseEngine().Run(c.program, c.edb);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    obs::MetricsRegistry registry;
    ChaseConfig auto_config;
    auto_config.metrics = &registry;
    for (const Fact& goal : c.goals) {
      SCOPED_TRACE("goal=" + goal.ToString());
      auto forced =
          QueryEvaluator(ChaseConfig()).Evaluate(c.program, c.edb, goal);
      ASSERT_TRUE(forced.ok()) << forced.status().ToString();
      ASSERT_TRUE(forced.value().stats.query_driven);
      const int64_t relevant = forced.value().stats.relevant_edb_facts;
      ASSERT_LT(pinned, kPinned.size());
      EXPECT_EQ(relevant, kPinned[pinned++]);

      auto chosen = QueryEvaluator(auto_config)
                        .Evaluate(c.program, c.edb, goal, EvalMode::kAuto);
      ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
      const QueryResult& run = chosen.value();
      EXPECT_EQ(run.plan.mode, EvalMode::kQsqr) << run.plan.reason;
      EXPECT_TRUE(run.stats.query_driven);
      EXPECT_EQ(run.stats.relevant_edb_facts, relevant);

      std::vector<std::string> answers;
      for (const Fact& fact : run.answers) answers.push_back(fact.ToString());
      EXPECT_EQ(answers, Filter(full.value(), goal));
      if (run.answers.empty()) continue;
      auto want = explainer.value()->Explain(full.value(), run.answers[0]);
      auto got = explainer.value()->Explain(run.chase, run.answers[0]);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), want.value());
    }
    EXPECT_EQ(registry.counter("chase.query.runs")->value(),
              static_cast<int64_t>(c.goals.size()));
    EXPECT_EQ(registry.counter("chase.query.fallbacks")->value(), 0);
  }
  EXPECT_EQ(pinned, kPinned.size());
}

// A monotone threshold prunes per binding: the same variable arrives
// increasing (a sum) in one branch and decreasing (a min) in another, and
// each branch's comparison reads its own direction. A's sum, 3, fails
// `v > 5` and so did every partial sum, so Top(G, a1) is never derived
// and Far(a1, ...) stays out of the cone; B's min only ever falls towards
// 7, so `v > 5` cannot reject it. The verdict does not depend on which
// branch the pass enumerates first.
TEST(QueryPlannerChoiceTest, TaintDirectionIsPerBinding) {
  const Program program = ParseProgram(R"(
up: Pu(x, y, w), v = sum(w) -> Up(x, v).
down: Pd(x, y, w), v = min(w) -> Down(x, v).
vu: Up(x, v) -> Val(x, v).
vd: Down(x, v) -> Val(x, v).
top: Seed(g, x), Val(x, v), v > 5, Link(x, z) -> Top(g, z).
reach: Top(g, z), Far(z, w) -> Reach(g, w).
)")
                              .value();
  auto fact = [](const char* predicate, std::vector<Value> args) {
    return Fact{predicate, std::move(args)};
  };
  const std::vector<Fact> rest = {
      fact("Pu", {S("A"), S("y1"), Value::Double(1)}),
      fact("Pu", {S("A"), S("y2"), Value::Double(2)}),
      fact("Pd", {S("B"), S("y1"), Value::Double(9)}),
      fact("Pd", {S("B"), S("y2"), Value::Double(7)}),
      fact("Link", {S("A"), S("a1")}),
      fact("Link", {S("B"), S("b1")}),
      fact("Far", {S("a1"), S("fa")}),
      fact("Far", {S("b1"), S("fb")}),
  };
  const Fact goal{"Reach", {S("G"), N()}};
  for (const char* first : {"A", "B"}) {
    SCOPED_TRACE(std::string("first seed ") + first);
    std::vector<Fact> edb = {
        fact("Seed", {S("G"), S(first)}),
        fact("Seed", {S("G"), S(first[0] == 'A' ? "B" : "A")})};
    edb.insert(edb.end(), rest.begin(), rest.end());
    auto full = ChaseEngine().Run(program, edb);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    auto run = QueryEvaluator(ChaseConfig())
                   .Evaluate(program, edb, goal, EvalMode::kAuto);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run.value().stats.query_driven);
    // Every fact but Far(a1, fa).
    EXPECT_EQ(run.value().stats.relevant_edb_facts, 9);
    std::vector<std::string> answers;
    for (const Fact& f : run.value().answers) answers.push_back(f.ToString());
    EXPECT_EQ(answers, Filter(full.value(), goal));
    EXPECT_EQ(answers.size(), 1u);  // Reach(G, fb)
  }
}

}  // namespace
}  // namespace templex
