// Differential suite for ChaseResult::Match: every pattern query must return
// exactly what a plain scan of the predicate's facts returns (same facts,
// same ascending-id order), whether Match probes the graph's position index
// or walks FactsOf. Covers every predicate of the financial applications and
// the example programs, over results from Run at 1/2/8 threads, Extend,
// WhatIf, a resumed checkpoint run and QueryEvaluator, graphs grown after
// the run, plus a hand-built graph whose index keys are narrowed so buckets
// merge predicates and values.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/application.h"
#include "apps/generators.h"
#include "apps/glossaries.h"
#include "apps/programs.h"
#include "common/fs.h"
#include "common/rng.h"
#include "datalog/parser.h"
#include "engine/chase.h"
#include "engine/position_index.h"
#include "engine/query.h"

namespace templex {
namespace {

Value S(const std::string& s) { return Value::String(s); }
Value D(double d) { return Value::Double(d); }
Value I(int64_t i) { return Value::Int(i); }
Value N() { return Value::Null(); }

// The scan Match replaced: the predicate's facts in id order, kept when the
// arity agrees and every non-Null pattern argument equals the fact's.
std::vector<std::string> ReferenceScan(const ChaseResult& chase,
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

std::vector<std::string> Strings(const std::vector<Fact>& facts) {
  std::vector<std::string> out;
  for (const Fact& fact : facts) out.push_back(fact.ToString());
  return out;
}

// Patterns over every predicate of `chase`, built from up to three sample
// facts (first, middle, last): all positions free, each single position
// bound, all positions bound, an absent constant at each position, both
// arity mismatches, and an integral double re-bound as an Int. Plus one
// unknown predicate.
std::vector<Fact> PatternsFor(const ChaseResult& chase) {
  std::vector<Fact> patterns = {{"NoSuchPredicate", {N()}},
                                {"NoSuchPredicate", {}}};
  const SymbolTable& symbols = chase.graph.symbols();
  for (Symbol predicate = 0; predicate < symbols.size(); ++predicate) {
    const std::vector<FactId>& ids = chase.graph.FactsOf(predicate);
    if (ids.empty()) continue;
    const std::string& name = symbols.name(predicate);
    for (size_t pick : {size_t{0}, ids.size() / 2, ids.size() - 1}) {
      const Fact& sample = chase.graph.node(ids[pick]).fact;
      const int arity = sample.arity();
      patterns.push_back({name, std::vector<Value>(arity, N())});
      patterns.push_back({name, std::vector<Value>(arity + 1, N())});
      if (arity > 0) {
        patterns.push_back({name, std::vector<Value>(arity - 1, N())});
      }
      patterns.push_back(sample);
      for (int pos = 0; pos < arity; ++pos) {
        Fact bound(name, std::vector<Value>(arity, N()));
        bound.args[pos] = sample.args[pos];
        patterns.push_back(bound);
        bound.args[pos] = S("__absent_from_graph__");
        patterns.push_back(bound);
        const Value& v = sample.args[pos];
        if (v.is_double() && v.double_value() == static_cast<int64_t>(
                                                     v.double_value())) {
          bound.args[pos] = I(static_cast<int64_t>(v.double_value()));
          patterns.push_back(bound);
        }
      }
    }
  }
  return patterns;
}

void ExpectMatchesReference(const ChaseResult& chase,
                            const std::string& context) {
  SCOPED_TRACE(context);
  for (const Fact& pattern : PatternsFor(chase)) {
    EXPECT_EQ(Strings(chase.Match(pattern)), ReferenceScan(chase, pattern))
        << "pattern " << pattern.ToString();
  }
}

struct Scenario {
  std::string name;
  Program program;
  std::vector<Fact> edb;
  std::vector<Fact> goals;  // QueryEvaluator goals
};

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> out;
  {
    Rng rng(7);
    OwnershipNetworkOptions options;
    options.companies = 40;
    options.noise_edges = 40;
    options.company_facts = true;
    out.push_back({"company_control", CompanyControlProgram(),
                   GenerateOwnershipNetwork(options, &rng),
                   {{"Control", {N(), N()}}}});
  }
  {
    Rng rng(11);
    DebtNetworkOptions options;
    out.push_back({"simplified_stress_test", SimplifiedStressTestProgram(),
                   GenerateDebtNetwork(options, &rng),
                   {{"Default", {N()}}}});
  }
  {
    Rng rng(3);
    SampledInstance instance = SampleStressCascade(5, 2, &rng);
    out.push_back({"stress_test", StressTestProgram(), instance.edb,
                   {instance.goal}});
  }
  out.push_back({"golden_power",
                 GoldenPowerProgram(),
                 {{"Own", {S("ForeignCo"), S("HoldCo"), D(0.8)}},
                  {"Own", {S("HoldCo"), S("StratCo"), D(0.6)}},
                  {"Own", {S("HoldCo"), S("OtherCo"), D(0.7)}},
                  {"Strategic", {S("StratCo")}},
                  {"Foreign", {S("ForeignCo")}},
                  {"Acquisition",
                   {S("ForeignCo"), S("StratCo"), S("2026-01-15")}}},
                 {{"Review", {S("ForeignCo"), S("StratCo"), N()}}}});
  {
    Rng rng(5);
    OwnershipDagOptions options;
    options.layers = 5;
    options.width = 4;
    out.push_back({"close_links", CloseLinksProgram(),
                   GenerateOwnershipDag(options, &rng),
                   {{"CloseLink", {N(), N()}}}});
  }
  {
    std::vector<Fact> edb;
    for (int i = 0; i < 30; ++i) {
      edb.push_back({"Edge", {S("a" + std::to_string(i)),
                              S("a" + std::to_string(i + 1))}});
    }
    edb.push_back({"Edge", {S("a5"), S("a2")}});  // a cycle
    out.push_back({"transitive_closure", ParseProgram(R"(
@goal Path.
base: Edge(x, y) -> Path(x, y).
step: Edge(x, z), Path(z, y) -> Path(x, y).
)").value(),
                   edb,
                   {{"Path", {S("a0"), N()}}, {"Path", {N(), S("a3")}}}});
  }
  // Existential heads: Officer facts carry labeled nulls, so the
  // single-position patterns bind one.
  out.push_back({"existential", ParseProgram(R"(
@goal Officer.
officer: Company(x) -> Officer(x, z).
)").value(),
                 {{"Company", {S("A")}}, {"Company", {S("B")}}},
                 {{"Officer", {S("A"), N()}}}});
  // Mixed numeric kinds: Int(2) in a pattern must match Double(2.0) facts
  // and Int(2) facts alike, through the index and through the scan.
  out.push_back({"numeric_kinds", ParseProgram(R"(
@goal Heavy.
heavy: Weight(x, w), w >= 2 -> Heavy(x, w).
)").value(),
                 {{"Weight", {S("a"), D(2.0)}},
                  {"Weight", {S("b"), I(2)}},
                  {"Weight", {S("c"), D(2.5)}},
                  {"Weight", {S("d"), I(1)}}},
                 {{"Heavy", {N(), I(2)}}}});
  return out;
}

Scenario ScenarioNamed(const std::string& name) {
  for (Scenario& s : Scenarios()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "no scenario " << name;
  return Scenario();
}

TEST(ChaseResultMatchTest, RunAtEveryThreadCount) {
  for (const Scenario& s : Scenarios()) {
    for (int threads : {1, 2, 8}) {
      ChaseConfig config;
      config.num_threads = threads;
      auto chase = ChaseEngine(config).Run(s.program, s.edb);
      ASSERT_TRUE(chase.ok()) << s.name << ": " << chase.status().ToString();
      ExpectMatchesReference(chase.value(),
                             s.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(ChaseResultMatchTest, IntPatternMatchesIntegralDoubleFacts) {
  Scenario s = ScenarioNamed("numeric_kinds");
  auto chase = ChaseEngine().Run(s.program, s.edb);
  ASSERT_TRUE(chase.ok());
  for (const Value& two : {I(2), D(2.0)}) {
    const std::vector<Fact> heavy = chase.value().Match({"Heavy", {N(), two}});
    ASSERT_EQ(heavy.size(), 2u) << two.ToString();
    EXPECT_EQ(heavy[0].args[0], S("a"));
    EXPECT_EQ(heavy[1].args[0], S("b"));
  }
}

TEST(ChaseResultMatchTest, LabeledNullArgumentIsAnIndexedValue) {
  Scenario s = ScenarioNamed("existential");
  auto chase = ChaseEngine().Run(s.program, s.edb);
  ASSERT_TRUE(chase.ok());
  const std::vector<Fact> officers =
      chase.value().Match({"Officer", {N(), N()}});
  ASSERT_EQ(officers.size(), 2u);
  const Value& null_b = officers[1].args[1];
  ASSERT_TRUE(null_b.is_labeled_null());
  const std::vector<Fact> found =
      chase.value().Match({"Officer", {N(), null_b}});
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].args[0], S("B"));
}

TEST(ChaseResultMatchTest, ExtendAndWhatIf) {
  for (const Scenario& s : Scenarios()) {
    if (HasDerivingNegation(s.program)) continue;
    // Extend: chase the first half of the EDB, then extend with the rest.
    const size_t half = s.edb.size() / 2;
    std::vector<Fact> first(s.edb.begin(), s.edb.begin() + half);
    std::vector<Fact> rest(s.edb.begin() + half, s.edb.end());
    auto base = ChaseEngine().Run(s.program, first);
    ASSERT_TRUE(base.ok()) << s.name;
    auto extended = ChaseEngine().Extend(base.value(), s.program, rest);
    ASSERT_TRUE(extended.ok()) << s.name << ": "
                               << extended.status().ToString();
    ExpectMatchesReference(extended.value(), s.name + " extend");
    // The base keeps its own index: extension never touches it.
    ExpectMatchesReference(base.value(), s.name + " extend base");
  }

  // WhatIf through the application facade, and Query on its baseline.
  Rng rng(7);
  OwnershipNetworkOptions options;
  options.companies = 30;
  options.noise_edges = 30;
  auto app = KnowledgeGraphApplication::Create(CompanyControlProgram(),
                                               CompanyControlGlossary());
  ASSERT_TRUE(app.ok());
  app.value()->AddFacts(GenerateOwnershipNetwork(options, &rng));
  ASSERT_TRUE(app.value()->Run().ok());
  auto scenario = app.value()->WhatIf(
      {{"Own", {S(CompanyName(0)), S(CompanyName(5)), D(0.9)}}});
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  ExpectMatchesReference(scenario.value().chase, "whatif");
  for (const Fact& pattern : PatternsFor(app.value()->chase())) {
    EXPECT_EQ(Strings(app.value()->Query(pattern)),
              ReferenceScan(app.value()->chase(), pattern))
        << "Query " << pattern.ToString();
  }
}

TEST(ChaseResultMatchTest, ResumedCheckpointRun) {
  for (const Scenario& s : Scenarios()) {
    MemFs fs;
    ChaseConfig killed;
    killed.checkpoint.fs = &fs;
    killed.checkpoint.dir = "/ckpt";
    killed.max_rounds = 2;  // commits round 2, then stops
    (void)ChaseEngine(killed).Run(s.program, s.edb);
    ChaseConfig resumed = killed;
    resumed.max_rounds = ChaseConfig().max_rounds;
    resumed.checkpoint.resume = true;
    auto chase = ChaseEngine(resumed).Run(s.program, s.edb);
    ASSERT_TRUE(chase.ok()) << s.name << ": " << chase.status().ToString();
    ExpectMatchesReference(chase.value(), s.name + " resumed");
  }
}

TEST(ChaseResultMatchTest, QueryEvaluatorResults) {
  for (const Scenario& s : Scenarios()) {
    for (const Fact& goal : s.goals) {
      auto query = QueryEvaluator(ChaseConfig()).Evaluate(s.program, s.edb,
                                                          goal);
      ASSERT_TRUE(query.ok()) << s.name << ": " << query.status().ToString();
      EXPECT_EQ(Strings(query.value().answers),
                ReferenceScan(query.value().chase, goal))
          << s.name << " goal " << goal.ToString();
      ExpectMatchesReference(query.value().chase, s.name + " query-driven");
    }
  }
}

// The graph indexes every node it gains, after the run too: a finished
// result and a copy of its graph each grow by AddNode, each finds its own
// new fact through Match, and neither sees the other's.
TEST(ChaseResultMatchTest, GraphsGrownAfterTheRunIndexTheirNewFacts) {
  Scenario s = ScenarioNamed("company_control");
  auto chase = ChaseEngine().Run(s.program, s.edb);
  ASSERT_TRUE(chase.ok());
  ChaseResult grown = std::move(chase).value();
  ChaseResult copy;
  copy.graph = grown.graph;
  const Fact late("Control", {S("Late"), S("Comer")});
  const Fact early("Control", {S("Early"), S("Bird")});
  auto add = [](ChaseResult* result, const Fact& fact) {
    ChaseNode node;
    node.fact = fact;
    ASSERT_TRUE(result->graph.AddNode(std::move(node)).second);
  };
  add(&grown, late);
  add(&copy, early);
  ASSERT_EQ(grown.graph.size(), copy.graph.size());
  auto expect_own = [](const ChaseResult& result, const Fact& own,
                       const Fact& other) {
    EXPECT_EQ(Strings(result.Match({"Control", {own.args[0], N()}})),
              std::vector<std::string>{own.ToString()});
    EXPECT_TRUE(result.Match({"Control", {other.args[0], N()}}).empty());
    EXPECT_TRUE(result.Match({"Control", {N(), other.args[1]}}).empty());
  };
  expect_own(grown, late, early);
  expect_own(copy, early, late);
  ExpectMatchesReference(grown, "grown");
  ExpectMatchesReference(copy, "grown copy");
}

// With the graph's PosKey narrowed to four bits, the sixteen buckets mix
// predicates, positions and values, so Match returns the right answers
// only because it checks each candidate in full.
TEST(ChaseResultMatchTest, MergedBucketsAreFilteredByTheChecks) {
  constexpr int kCompanies = 128;
  ChaseResult chase;
  chase.graph.set_position_key_mask_for_testing(0xF);
  const PositionIndex* index = &chase.graph.position_index();
  auto add = [&](const Fact& fact) {
    ChaseNode node;
    node.fact = fact;
    ASSERT_TRUE(chase.graph.AddNode(std::move(node)).second);
  };
  auto company = [](int i) { return S("c" + std::to_string(i)); };
  for (int i = 0; i < kCompanies; ++i) {
    add({"Own", {company(i), company(i + 1), D(0.5 + i / 1000.0)}});
    add({"Control", {company(i), company(i + 1)}});
    add({"Weight", {company(i), I(i % 3)}});  // same arity as Control
  }
  add({"Control", {company(1), company(1), company(1)}});  // arity 3
  EXPECT_GT(index->collision_groups(), 0);
  EXPECT_LE(index->position_keys(), 16);

  // Every bucket lists each fact once, in ascending id order, even where
  // two positions of one fact collide.
  for (FactId id = 0; id < chase.graph.size(); ++id) {
    const Fact& fact = chase.graph.node(id).fact;
    for (int pos = 0; pos < fact.arity(); ++pos) {
      const std::vector<FactId>* bucket =
          index->Find(fact.pred_symbol, pos, fact.args[pos]);
      ASSERT_NE(bucket, nullptr);
      for (size_t k = 1; k < bucket->size(); ++k) {
        ASSERT_LT((*bucket)[k - 1], (*bucket)[k]);
      }
    }
  }

  // A company whose Control and Weight first-position entries share one
  // bucket, smaller than the Control list: Match probes that bucket and
  // must drop the Weight fact that agrees on arity and value.
  const Symbol control = chase.graph.symbols().Lookup("Control");
  const Symbol weight = chase.graph.symbols().Lookup("Weight");
  const size_t control_facts = chase.graph.FactsOf(control).size();
  int shared = -1;
  for (int i = 0; i < kCompanies && shared < 0; ++i) {
    const std::vector<FactId>* bucket = index->Find(control, 0, company(i));
    if (bucket != nullptr && bucket == index->Find(weight, 0, company(i)) &&
        bucket->size() < control_facts) {
      shared = i;
    }
  }
  ASSERT_GE(shared, 0) << "no Control/Weight bucket merge to exercise";

  ExpectMatchesReference(chase, "merged buckets");
  const Fact pattern("Control", {company(shared), N()});
  EXPECT_EQ(Strings(chase.Match(pattern)),
            std::vector<std::string>{
                Fact("Control", {company(shared), company(shared + 1)})
                    .ToString()});
  EXPECT_EQ(chase.Match({"Weight", {N(), D(2.0)}}).size(),
            static_cast<size_t>(kCompanies / 3));
}

}  // namespace
}  // namespace templex
