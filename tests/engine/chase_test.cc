#include "engine/chase.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "apps/generators.h"
#include "apps/programs.h"
#include "common/rng.h"
#include "datalog/parser.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value I(int64_t i) { return Value::Int(i); }
Value D(double d) { return Value::Double(d); }

std::vector<Fact> Figure8Edb() {
  return {
      {"Shock", {S("A"), I(6)}},          {"HasCapital", {S("A"), I(5)}},
      {"HasCapital", {S("B"), I(2)}},     {"HasCapital", {S("C"), I(10)}},
      {"Debts", {S("A"), S("B"), I(7)}},  {"Debts", {S("B"), S("C"), I(2)}},
      {"Debts", {S("B"), S("C"), I(9)}},
  };
}

TEST(ChaseTest, TransitiveClosureFixpoint) {
  Program program = ParseProgram(R"(
e: Edge(x, y) -> Path(x, y).
t: Path(x, y), Edge(y, z) -> Path(x, z).
)")
                        .value();
  std::vector<Fact> edb = {
      {"Edge", {I(1), I(2)}}, {"Edge", {I(2), I(3)}}, {"Edge", {I(3), I(4)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().FactsOf("Path").size(), 6u);
}

TEST(ChaseTest, CyclicEdgesTerminateUnderSetSemantics) {
  Program program = ParseProgram(R"(
e: Edge(x, y) -> Path(x, y).
t: Path(x, y), Edge(y, z) -> Path(x, z).
)")
                        .value();
  std::vector<Fact> edb = {{"Edge", {I(1), I(2)}}, {"Edge", {I(2), I(1)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().FactsOf("Path").size(), 4u);  // all pairs
}

TEST(ChaseTest, ConditionsFilterDerivations) {
  Program program =
      ParseProgram("c: Own(x, y, s), s > 0.5 -> Control(x, y).").value();
  std::vector<Fact> edb = {{"Own", {S("A"), S("B"), D(0.6)}},
                           {"Own", {S("A"), S("C"), D(0.4)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok());
  auto controls = result.value().FactsOf("Control");
  ASSERT_EQ(controls.size(), 1u);
  EXPECT_EQ(controls[0].args[1], S("B"));
}

TEST(ChaseTest, AssignmentsComputeHeadValues) {
  Program program =
      ParseProgram("m: Pair(x, a, b), p = a * b -> Product(x, p).").value();
  std::vector<Fact> edb = {{"Pair", {S("k"), D(0.5), D(0.4)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok());
  auto products = result.value().FactsOf("Product");
  ASSERT_EQ(products.size(), 1u);
  EXPECT_EQ(products[0].args[1], D(0.2));
}

TEST(ChaseTest, Example47ReproducesFigure8) {
  Program program = SimplifiedStressTestProgram();
  auto result = ChaseEngine().Run(program, Figure8Edb());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ChaseResult& chase = result.value();
  // A, B, C all default; Risk(B,7) and Risk(C,11) derived.
  EXPECT_TRUE(chase.Find({"Default", {S("A")}}).ok());
  EXPECT_TRUE(chase.Find({"Default", {S("B")}}).ok());
  EXPECT_TRUE(chase.Find({"Default", {S("C")}}).ok());
  EXPECT_TRUE(chase.Find({"Risk", {S("B"), I(7)}}).ok());
  auto risk_c = chase.Find({"Risk", {S("C"), I(11)}});
  ASSERT_TRUE(risk_c.ok());
  // The aggregated Risk(C, 11) records both Debts contributions.
  const Derivation& derivation = chase.graph.node(risk_c.value()).derivation;
  ASSERT_EQ(derivation.contributions.size(), 2u);
  EXPECT_EQ(derivation.contributions[0].input, I(2));
  EXPECT_EQ(derivation.contributions[1].input, I(9));
}

TEST(ChaseTest, MonotoneAggregationEmitsRunningSums) {
  Program program = SimplifiedStressTestProgram();
  auto result = ChaseEngine().Run(program, Figure8Edb());
  ASSERT_TRUE(result.ok());
  // The intermediate running sum Risk(C, 2) also exists in the chase.
  EXPECT_TRUE(result.value().Find({"Risk", {S("C"), I(2)}}).ok());
}

TEST(ChaseTest, CompanyControlJointControl) {
  Program program = CompanyControlProgram();
  // X owns 60% of Z1 and Z2; Z1 and Z2 each own 30% of Y.
  std::vector<Fact> edb = {
      {"Own", {S("X"), S("Z1"), D(0.6)}}, {"Own", {S("X"), S("Z2"), D(0.6)}},
      {"Own", {S("Z1"), S("Y"), D(0.3)}}, {"Own", {S("Z2"), S("Y"), D(0.3)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().Find({"Control", {S("X"), S("Y")}}).ok());
  // Neither intermediary controls Y alone.
  EXPECT_FALSE(result.value().Find({"Control", {S("Z1"), S("Y")}}).ok());
}

TEST(ChaseTest, CompanyControlDirectSharesViaAutoControl) {
  Program program = CompanyControlProgram();
  // A owns 30% of C directly and fully controls B which owns 25% of C:
  // jointly 55% -> control, counting A's own shares through Control(A, A).
  std::vector<Fact> edb = {{"Company", {S("A")}},
                           {"Own", {S("A"), S("B"), D(0.7)}},
                           {"Own", {S("A"), S("C"), D(0.3)}},
                           {"Own", {S("B"), S("C"), D(0.25)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().Find({"Control", {S("A"), S("C")}}).ok());
}

TEST(ChaseTest, StressTestTwoChannelsSumPerChannel) {
  Program program = StressTestProgram();
  std::vector<Fact> edb = {
      {"HasCapital", {S("A"), I(5)}},
      {"HasCapital", {S("F"), I(9)}},
      {"Shock", {S("A"), I(14)}},
      {"LongTermDebts", {S("A"), S("F"), I(4)}},
      {"ShortTermDebts", {S("A"), S("F"), I(7)}},
  };
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok());
  const ChaseResult& chase = result.value();
  EXPECT_TRUE(chase.Find({"Risk", {S("F"), I(4), S("long")}}).ok());
  EXPECT_TRUE(chase.Find({"Risk", {S("F"), I(7), S("short")}}).ok());
  // 4 + 7 = 11 > 9: F defaults across the two channels jointly.
  EXPECT_TRUE(chase.Find({"Default", {S("F")}}).ok());
}

TEST(ChaseTest, StressTestSingleChannelBelowCapitalHolds) {
  Program program = StressTestProgram();
  std::vector<Fact> edb = {
      {"HasCapital", {S("A"), I(5)}},
      {"HasCapital", {S("F"), I(9)}},
      {"Shock", {S("A"), I(14)}},
      {"LongTermDebts", {S("A"), S("F"), I(8)}},
  };
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().Find({"Default", {S("F")}}).ok());
}

TEST(ChaseTest, CloseLinksIntegratedOwnership) {
  Program program = CloseLinksProgram();
  // A -> B (50%) -> C (50%): integrated 25% >= 20% -> close link A-C.
  std::vector<Fact> edb = {{"Own", {S("A"), S("B"), D(0.5)}},
                           {"Own", {S("B"), S("C"), D(0.5)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().Find({"CloseLink", {S("A"), S("C")}}).ok());
  EXPECT_TRUE(result.value().Find({"IntOwn", {S("A"), S("C"), D(0.25)}}).ok());
}

TEST(ChaseTest, CloseLinksBelowThresholdExcluded) {
  Program program = CloseLinksProgram();
  std::vector<Fact> edb = {{"Own", {S("A"), S("B"), D(0.4)}},
                           {"Own", {S("B"), S("C"), D(0.4)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok());
  // 0.16 < 0.2: no close link between A and C; direct links qualify.
  EXPECT_FALSE(result.value().Find({"CloseLink", {S("A"), S("C")}}).ok());
  EXPECT_TRUE(result.value().Find({"CloseLink", {S("A"), S("B")}}).ok());
}

TEST(ChaseTest, ExistentialInventsLabeledNull) {
  Program program = ParseProgram("p: Person(x) -> Knows(x, z).").value();
  auto result = ChaseEngine().Run(program, {{"Person", {S("alice")}}});
  ASSERT_TRUE(result.ok());
  auto knows = result.value().FactsOf("Knows");
  ASSERT_EQ(knows.size(), 1u);
  EXPECT_TRUE(knows[0].args[1].is_labeled_null());
}

TEST(ChaseTest, ExistentialReusedWhenFactExists) {
  // Restricted-chase behaviour: an existing Knows(alice, bob) satisfies the
  // existential, so no null is invented.
  Program program = ParseProgram("p: Person(x) -> Knows(x, z).").value();
  auto result = ChaseEngine().Run(
      program, {{"Person", {S("alice")}}, {"Knows", {S("alice"), S("bob")}}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().FactsOf("Knows").size(), 1u);
}

// Naive evaluation (every rule over the whole database, every round) is
// the oracle for the semi-naive delta windows: both must reach the same
// fact set. Ids and provenance may differ, because the rounds derive in a
// different order; the facts may not.
std::vector<std::string> FactSet(const ChaseResult& chase) {
  std::vector<std::string> facts;
  for (FactId id = 0; id < chase.graph.size(); ++id) {
    facts.push_back(chase.graph.node(id).fact.ToString());
  }
  std::sort(facts.begin(), facts.end());
  return facts;
}

void ExpectNaiveOracleAgrees(const Program& program,
                             const std::vector<Fact>& edb) {
  ChaseConfig naive_config;
  naive_config.semi_naive = false;
  auto semi = ChaseEngine().Run(program, edb);
  auto naive = ChaseEngine(naive_config).Run(program, edb);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(FactSet(semi.value()), FactSet(naive.value()));
}

TEST(ChaseTest, SemiNaiveAndNaiveAgree) {
  ExpectNaiveOracleAgrees(SimplifiedStressTestProgram(), Figure8Edb());
}

TEST(ChaseTest, NaiveOracleTransitiveClosure) {
  Program program = ParseProgram(R"(
base: Edge(x, y) -> Path(x, y).
step: Path(x, z), Edge(z, y) -> Path(x, y).
)")
                        .value();
  std::vector<Fact> edb;
  for (int i = 0; i < 24; ++i) {
    edb.push_back({"Edge", {S(("N" + std::to_string(i)).c_str()),
                            S(("N" + std::to_string((i + 1) % 24)).c_str())}});
  }
  ExpectNaiveOracleAgrees(program, edb);
}

TEST(ChaseTest, NaiveOracleSeededRandomPrograms) {
  // Random safe Datalog programs (no existentials, finite domain, hence
  // terminating) over random edge EDBs: rule bodies are drawn from join
  // templates that exercise bound-at-entry probes, unbound leading scans,
  // and repeated variables. Forty seeds: dropping the semi-naive passes
  // that pivot past body atom 0 changes the fact set of four of them.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::ostringstream program_text;
    const int derived = static_cast<int>(rng.NextInt(2, 4));
    for (int i = 0; i < derived; ++i) {
      const std::string head = "P" + std::to_string(i);
      auto prev = [&]() {
        return i == 0 ? std::string("E")
                      : "P" + std::to_string(rng.NextInt(0, i - 1));
      };
      switch (rng.NextInt(0, 3)) {
        case 0:
          program_text << "r" << i << ": E(x, y) -> " << head << "(x, y).\n";
          break;
        case 1:
          program_text << "r" << i << ": " << prev()
                       << "(x, y), E(y, z) -> " << head << "(x, z).\n";
          break;
        case 2:
          program_text << "r" << i << ": " << prev() << "(x, y), " << prev()
                       << "(y, z) -> " << head << "(x, z).\n";
          break;
        default:
          program_text << "r" << i << ": E(x, y), E(x, z) -> " << head
                       << "(y, z).\n";
          break;
      }
    }
    auto program = ParseProgram(program_text.str());
    ASSERT_TRUE(program.ok())
        << program.status().ToString() << "\n" << program_text.str();
    std::vector<Fact> edb;
    const int nodes = static_cast<int>(rng.NextInt(5, 9));
    const int edges = static_cast<int>(rng.NextInt(8, 20));
    for (int e = 0; e < edges; ++e) {
      const std::string from = "N" + std::to_string(rng.NextInt(0, nodes));
      const std::string to = "N" + std::to_string(rng.NextInt(0, nodes));
      edb.push_back({"E", {S(from.c_str()), S(to.c_str())}});
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + program_text.str());
    ExpectNaiveOracleAgrees(program.value(), edb);
  }
}

TEST(ChaseTest, NaiveOracleStratifiedNegation) {
  // Two strata: Controlled saturates before the stratum that negates it.
  Program program = ParseProgram(R"(
c: Own(x, y, s), s > 0.5 -> Controlled(y).
r: Company(x), not Controlled(x) -> Root(x).
m: Root(x), Own(x, y, s) -> Reach(x, y).
)")
                        .value();
  std::vector<Fact> edb;
  for (int i = 0; i < 12; ++i) {
    const std::string a = "C" + std::to_string(i);
    const std::string b = "C" + std::to_string(i + 1);
    edb.push_back({"Company", {S(a.c_str())}});
    edb.push_back({"Own", {S(a.c_str()), S(b.c_str()), D(i % 3 ? 0.6 : 0.2)}});
  }
  edb.push_back({"Company", {S("C12")}});
  ExpectNaiveOracleAgrees(program, edb);
}

TEST(ChaseTest, MaxFactsGuardFires) {
  Program program = ParseProgram(R"(
s: Num(x), y = x + 1 -> Num(y).
)")
                        .value();
  ChaseConfig config;
  config.max_facts = 100;
  auto result = ChaseEngine(config).Run(program, {{"Num", {I(0)}}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// The cap counts facts the chase holds, so it only binds when a head is
// new: a fixpoint of exactly max_facts facts completes (re-deriving an
// existing fact at the cap is a duplicate, not growth), and one fact less
// still trips.
TEST(ChaseTest, MaxFactsAdmitsAFixpointOfExactlyTheCap) {
  const Program program = CompanyControlProgram();
  OwnershipNetworkOptions options;
  options.companies = 100;
  options.chains = 11;
  options.chain_length = 5;
  options.stars = 7;
  options.noise_edges = 200;
  Rng rng(7);
  const std::vector<Fact> edb = GenerateOwnershipNetwork(options, &rng);
  auto unlimited = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  const int fixpoint = unlimited.value().graph.size();

  ChaseConfig exact;
  exact.max_facts = fixpoint;
  auto capped = ChaseEngine(exact).Run(program, edb);
  ASSERT_TRUE(capped.ok()) << capped.status().ToString();
  EXPECT_EQ(capped.value().graph.size(), fixpoint);
  EXPECT_EQ(capped.value().stats.matches, unlimited.value().stats.matches);

  ChaseConfig short_by_one;
  short_by_one.max_facts = fixpoint - 1;
  auto tripped = ChaseEngine(short_by_one).Run(program, edb);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);
}

TEST(ChaseTest, InvalidProgramRejected) {
  Program program;
  Rule rule;
  rule.label = "bad";
  rule.head = Atom("P", {Term::Variable("x")});
  program.AddRule(rule);  // empty body
  auto result = ChaseEngine().Run(program, {});
  EXPECT_FALSE(result.ok());
}

TEST(ChaseTest, NonNumericAggregateInputErrors) {
  Program program =
      ParseProgram("a: P(x, v), s = sum(v) -> Q(x, s).").value();
  auto result = ChaseEngine().Run(program, {{"P", {S("k"), S("oops")}}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChaseTest, StatsArepopulated) {
  Program program = SimplifiedStressTestProgram();
  auto result = ChaseEngine().Run(program, Figure8Edb());
  ASSERT_TRUE(result.ok());
  const ChaseStats& stats = result.value().stats;
  EXPECT_EQ(stats.initial_facts, 7);
  EXPECT_GT(stats.derived_facts, 0);
  EXPECT_GT(stats.rounds, 1);
  EXPECT_GT(stats.matches, 0);
}

TEST(ChaseTest, DuplicateEdbFactsDeduplicated) {
  Program program = ParseProgram("c: P(x) -> Q(x).").value();
  auto result =
      ChaseEngine().Run(program, {{"P", {I(1)}}, {"P", {I(1)}}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.initial_facts, 1);
}

TEST(ChaseTest, ProvenanceParentsInBodyOrder) {
  Program program = SimplifiedStressTestProgram();
  auto result = ChaseEngine().Run(program, Figure8Edb());
  ASSERT_TRUE(result.ok());
  const ChaseResult& chase = result.value();
  FactId id = chase.Find({"Default", {S("A")}}).value();
  const Derivation& derivation = chase.graph.node(id).derivation;
  ASSERT_EQ(derivation.parents.size(), 2u);
  EXPECT_EQ(chase.graph.node(derivation.parents[0]).fact.predicate, "Shock");
  EXPECT_EQ(chase.graph.node(derivation.parents[1]).fact.predicate,
            "HasCapital");
  EXPECT_EQ(chase.graph.RuleLabel(derivation.rule_index), "alpha");
}

}  // namespace
}  // namespace templex
