// Differential suite for query-driven evaluation (engine/query.h): for
// every example program and all four financial applications, a point query
// answered by QueryEvaluator must return the exact answer sequence a full
// materialization followed by a pattern filter returns, and Explainer must
// produce byte-identical explanation text against the restricted chase.
// Runs at 1, 2, and 8 threads — the byte-identity contract includes the
// parallel chase.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/generators.h"
#include "apps/glossaries.h"
#include "apps/programs.h"
#include "common/rng.h"
#include "datalog/parser.h"
#include "engine/chase.h"
#include "engine/query.h"
#include "engine/query_planner.h"
#include "explain/explainer.h"
#include "explain/glossary.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value D(double d) { return Value::Double(d); }
Value N() { return Value::Null(); }

// Mirrors templex_cli's fallback glossary: each predicate verbalizes as
// itself, so generic parsed programs can build an explanation pipeline.
DomainGlossary FallbackGlossary(const Program& program) {
  DomainGlossary glossary;
  std::map<std::string, int> arities;
  for (const Rule& rule : program.rules()) {
    for (const Atom& atom : rule.body) arities[atom.predicate] = atom.arity();
    for (const Atom& atom : rule.negative_body) {
      arities[atom.predicate] = atom.arity();
    }
    if (!rule.is_constraint) {
      arities[rule.head.predicate] = rule.head.arity();
    }
  }
  for (const auto& [predicate, arity] : arities) {
    GlossaryEntry entry;
    entry.pattern = predicate + " holds for";
    for (int a = 0; a < arity; ++a) {
      const std::string token = "a" + std::to_string(a + 1);
      entry.pattern += (a ? ", <" : " <") + token + ">";
      entry.arg_tokens.push_back(token);
    }
    if (arity == 0) entry.pattern = predicate + " holds";
    EXPECT_TRUE(glossary.Register(predicate, entry).ok());
  }
  return glossary;
}

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

std::vector<std::string> Strings(const std::vector<Fact>& facts) {
  std::vector<std::string> out;
  for (const Fact& fact : facts) out.push_back(fact.ToString());
  return out;
}

struct Scenario {
  std::string name;
  Program program;
  DomainGlossary glossary;
  std::vector<Fact> edb;
  // Goals the planner must find eligible: answered query-driven
  // (stats.query_driven == true).
  std::vector<Fact> goals;
  // Goals the eligibility check must refuse: answered by materialization
  // (stats.query_driven == false). Answers must be identical either way.
  std::vector<Fact> fallback_goals;
};

// Explains up to this many answers per goal against both chases.
constexpr size_t kExplainedAnswers = 3;

void CheckScenario(const Scenario& s) {
  SCOPED_TRACE(s.name);
  auto explainer = Explainer::Create(s.program, s.glossary);
  ASSERT_TRUE(explainer.ok()) << explainer.status().ToString();
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ChaseConfig config;
    config.num_threads = threads;
    auto full = ChaseEngine(config).Run(s.program, s.edb);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    for (const bool fallback : {false, true}) {
      for (const Fact& goal : fallback ? s.fallback_goals : s.goals) {
        SCOPED_TRACE("goal=" + goal.ToString());
        auto query = QueryEvaluator(config).Evaluate(s.program, s.edb, goal);
        ASSERT_TRUE(query.ok()) << query.status().ToString();
        std::vector<std::string> expected = Filter(full.value(), goal);
        EXPECT_EQ(Strings(query.value().answers), expected);
        EXPECT_EQ(query.value().stats.query_driven, !fallback)
            << "fallback reason: " << query.value().stats.fallback_reason;
        size_t explained = 0;
        for (const Fact& answer : query.value().answers) {
          if (explained++ == kExplainedAnswers) break;
          auto full_text = explainer.value()->Explain(full.value(), answer);
          auto query_text =
              explainer.value()->Explain(query.value().chase, answer);
          ASSERT_TRUE(full_text.ok()) << full_text.status().ToString();
          ASSERT_TRUE(query_text.ok()) << query_text.status().ToString();
          EXPECT_EQ(query_text.value(), full_text.value())
              << "explanation text diverged for " << answer.ToString();
        }
      }
    }
  }
}

// Picks a derivable goal: the first derived fact of `predicate` in the
// full chase, or a Null-free miss when none exists.
Fact FirstDerived(const Program& program, const std::vector<Fact>& edb,
                  const std::string& predicate) {
  auto full = ChaseEngine().Run(program, edb);
  EXPECT_TRUE(full.ok());
  for (FactId id : full.value().graph.FactsOf(predicate)) {
    const ChaseNode& node = full.value().graph.node(id);
    if (!node.is_extensional()) return node.fact;
  }
  return Fact(predicate, {S("__no_derived_fact__"), S("__none__")});
}

TEST(QueryVsMaterializeTest, CompanyControlNetwork) {
  Rng rng(7);
  OwnershipNetworkOptions options;
  options.companies = 60;
  options.noise_edges = 60;
  options.company_facts = true;
  Scenario s;
  s.name = "company_control";
  s.program = CompanyControlProgram();
  s.glossary = CompanyControlGlossary();
  s.edb = GenerateOwnershipNetwork(options, &rng);
  Fact derived = FirstDerived(s.program, s.edb, "Control");
  s.goals = {
      derived,                                  // fully bound, derivable
      {"Control", {derived.args[0], N()}},      // bf
      {"Control", {N(), derived.args[1]}},      // fb
      {"Control", {S("NoSuchCompany"), N()}},   // non-derivable
  };
  CheckScenario(s);
}

TEST(QueryVsMaterializeTest, SimplifiedStressTestNetwork) {
  Rng rng(11);
  DebtNetworkOptions options;
  Scenario s;
  s.name = "simplified_stress_test";
  s.program = SimplifiedStressTestProgram();
  s.glossary = SimplifiedStressTestGlossary();
  s.edb = GenerateDebtNetwork(options, &rng);
  Fact derived = FirstDerived(s.program, s.edb, "Default");
  s.goals = {
      derived,
      {"Default", {N()}},                 // all-free enumeration
      {"Default", {S("NoSuchBank")}},     // non-derivable
  };
  CheckScenario(s);
}

TEST(QueryVsMaterializeTest, StressTestCascade) {
  Rng rng(3);
  SampledInstance instance = SampleStressCascade(5, 2, &rng);
  Scenario s;
  s.name = "stress_test";
  s.program = StressTestProgram();
  s.glossary = StressTestGlossary();
  s.edb = instance.edb;
  s.goals = {
      instance.goal,
      {instance.goal.predicate,
       std::vector<Value>(instance.goal.arity(), N())},
      {instance.goal.predicate,
       std::vector<Value>(instance.goal.arity(), S("NoSuchBank"))},
  };
  CheckScenario(s);
}

TEST(QueryVsMaterializeTest, GoldenPowerReview) {
  Scenario s;
  s.name = "golden_power";
  s.program = GoldenPowerProgram();
  s.glossary = GoldenPowerGlossary();
  // A foreign acquirer controlling a strategic target through a chain.
  s.edb = {
      {"Own", {S("ForeignCo"), S("HoldCo"), D(0.8)}},
      {"Own", {S("HoldCo"), S("StratCo"), D(0.6)}},
      {"Own", {S("HoldCo"), S("OtherCo"), D(0.7)}},
      {"Strategic", {S("StratCo")}},
      {"Foreign", {S("ForeignCo")}},
      {"Acquisition", {S("ForeignCo"), S("StratCo"), S("2026-01-15")}},
  };
  s.goals = {
      {"Review", {S("ForeignCo"), S("StratCo"), N()}},
      {"GoldenPower", {S("ForeignCo"), N()}},
      {"GoldenPower", {S("HoldCo"), N()}},  // not foreign: no answers
  };
  CheckScenario(s);
}

TEST(QueryVsMaterializeTest, CloseLinksDag) {
  Rng rng(5);
  OwnershipDagOptions options;
  options.layers = 5;
  options.width = 4;
  Scenario s;
  s.name = "close_links";
  s.program = CloseLinksProgram();
  s.glossary = CloseLinksGlossary();
  s.edb = GenerateOwnershipDag(options, &rng);
  Fact derived = FirstDerived(s.program, s.edb, "CloseLink");
  s.goals = {
      derived,
      {"CloseLink", {derived.args[0], N()}},
      {"CloseLink", {S("NoSuchCompany"), N()}},
  };
  CheckScenario(s);
}

TEST(QueryVsMaterializeTest, TransitiveClosureAllAdornments) {
  Program program = ParseProgram(R"(
@goal Path.
base: Edge(x, y) -> Path(x, y).
step: Edge(x, z), Path(z, y) -> Path(x, y).
)")
                        .value();
  std::vector<Fact> edb;
  // Two chains sharing no nodes, plus a fork: restricting to one chain's
  // cone must not perturb the other's answers.
  for (int i = 0; i < 40; ++i) {
    edb.push_back({"Edge", {S(("a" + std::to_string(i)).c_str()),
                            S(("a" + std::to_string(i + 1)).c_str())}});
    edb.push_back({"Edge", {S(("b" + std::to_string(i)).c_str()),
                            S(("b" + std::to_string(i + 1)).c_str())}});
  }
  edb.push_back({"Edge", {S("a5"), S("b7")}});
  Scenario s;
  s.name = "transitive_closure";
  s.program = std::move(program);
  s.glossary = FallbackGlossary(s.program);
  s.edb = std::move(edb);
  s.goals = {
      {"Path", {S("a0"), S("a9")}},   // bb, derivable
      {"Path", {S("a0"), N()}},       // bf
      {"Path", {N(), S("b3")}},       // fb
      {"Path", {N(), N()}},           // ff
      {"Path", {S("b9"), S("a0")}},   // bb, non-derivable
  };
  CheckScenario(s);
}

TEST(QueryVsMaterializeTest, StratifiedNegation) {
  Program program = ParseProgram(R"(
@goal CleanEdge.
flag: Audit(x) -> Flagged(x).
ok: Company(x), not Flagged(x) -> Clean(x).
pair: Edge(x, y), Clean(x), Clean(y) -> CleanEdge(x, y).
)")
                        .value();
  std::vector<Fact> edb;
  for (int i = 0; i < 30; ++i) {
    std::string name = "c" + std::to_string(i);
    edb.push_back({"Company", {S(name.c_str())}});
    if (i % 3 == 0) edb.push_back({"Audit", {S(name.c_str())}});
    std::string next = "c" + std::to_string((i + 1) % 30);
    edb.push_back({"Edge", {S(name.c_str()), S(next.c_str())}});
  }
  Scenario s;
  s.name = "stratified_negation";
  s.program = std::move(program);
  s.glossary = FallbackGlossary(s.program);
  s.edb = std::move(edb);
  s.goals = {
      {"Clean", {S("c1")}},
      {"Clean", {S("c3")}},              // audited: non-derivable
  };
  // Both Clean atoms of `pair` are called bound, and the magic rule for
  // the second reads the first: Clean@b -> m@Clean@b -> m@Flagged@b ->
  // Flagged@b -neg-> Clean@b would not stratify, so these are refused.
  s.fallback_goals = {
      {"CleanEdge", {S("c1"), N()}},
      {"CleanEdge", {N(), N()}},
  };
  CheckScenario(s);
}

TEST(QueryVsMaterializeTest, StratificationBreakFallsBack) {
  // The magic rule for the negated B@b would carry rule h's positive
  // prefix, closing the cycle H@b -neg-> B@b -> m@B@b -> P@b -> H@b even
  // though the original program stratifies: the eligibility check must
  // refuse and the evaluator must fall back, with answers still identical.
  Program program = ParseProgram(R"(
@goal H.
h0: Seed(x) -> H(x).
h: P(x), not B(x) -> H(x).
p: E(x, y), H(y) -> P(x).
b: E2(x) -> B(x).
)")
                        .value();
  std::vector<Fact> edb = {
      {"Seed", {S("s")}},
      {"E", {S("a"), S("s")}},
      {"E", {S("b"), S("a")}},
      {"E", {S("c"), S("b")}},
      {"E2", {S("b")}},
  };
  Scenario s;
  s.name = "strat_break_fallback";
  s.program = std::move(program);
  s.glossary = FallbackGlossary(s.program);
  s.edb = std::move(edb);
  s.fallback_goals = {
      {"H", {S("a")}},   // derivable: P(a) via H(s), and B(a) is absent
      {"H", {S("c")}},   // blocked: H(b) never derives, so P(c) is empty
      {"H", {N()}},
  };
  CheckScenario(s);
}

TEST(QueryVsMaterializeTest, ExistentialFallsBack) {
  Program program = ParseProgram(R"(
@goal Officer.
officer: Company(x) -> Officer(x, z).
)")
                        .value();
  std::vector<Fact> edb = {{"Company", {S("A")}}, {"Company", {S("B")}}};
  Scenario s;
  s.name = "existential_fallback";
  s.program = std::move(program);
  s.glossary = FallbackGlossary(s.program);
  s.edb = std::move(edb);
  s.fallback_goals = {{"Officer", {S("A"), N()}}};
  CheckScenario(s);
}

TEST(QueryVsMaterializeTest, ValidateGoalPattern) {
  Program program = CompanyControlProgram();
  std::vector<Fact> edb = {{"Own", {S("A"), S("B"), D(0.9)}}};
  EXPECT_TRUE(
      ValidateGoalPattern(program, edb, {"Control", {N(), N()}}).ok());
  EXPECT_TRUE(ValidateGoalPattern(program, edb, {"Own", {N(), N(), N()}})
                  .ok());
  // Unknown predicate.
  Status unknown =
      ValidateGoalPattern(program, edb, {"NoSuchPredicate", {N()}});
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  // Arity mismatch.
  Status arity = ValidateGoalPattern(program, edb, {"Control", {N()}});
  EXPECT_EQ(arity.code(), StatusCode::kInvalidArgument);
}

// Explainer::Create consumes its program; the scenarios above copy it
// implicitly. This pins that QueryEvaluator tolerates a goal predicate
// that exists only in the EDB (purely extensional query).
TEST(QueryVsMaterializeTest, ExtensionalGoal) {
  Program program = CompanyControlProgram();
  std::vector<Fact> edb = {
      {"Own", {S("A"), S("B"), D(0.9)}},
      {"Own", {S("B"), S("C"), D(0.7)}},
      {"Company", {S("A")}},
  };
  ChaseConfig config;
  auto query =
      QueryEvaluator(config).Evaluate(program, edb, {"Own", {S("A"), N(), N()}});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query.value().answers.size(), 1u);
  EXPECT_EQ(query.value().answers[0].ToString(),
            Fact("Own", {S("A"), S("B"), D(0.9)}).ToString());
}

}  // namespace
}  // namespace templex
