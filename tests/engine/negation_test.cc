// Stratified negation-as-failure and negative constraints (the remaining
// Vadalog extensions of the paper's §3).

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "engine/chase.h"
#include "engine/stratification.h"
#include "explain/explainer.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value I(int64_t i) { return Value::Int(i); }
Value D(double d) { return Value::Double(d); }

TEST(NegationParseTest, NotAtomGoesToNegativeBody) {
  Result<Rule> rule =
      ParseRule("Company(x), not Bank(x) -> NonBank(x).").value();
  ASSERT_EQ(rule.value().body.size(), 1u);
  ASSERT_EQ(rule.value().negative_body.size(), 1u);
  EXPECT_EQ(rule.value().negative_body[0].predicate, "Bank");
}

TEST(NegationParseTest, RoundTripsThroughToString) {
  Rule rule = ParseRule("Company(x), not Bank(x) -> NonBank(x).").value();
  Rule reparsed = ParseRule(rule.ToString()).value();
  EXPECT_EQ(reparsed.negative_body.size(), 1u);
  EXPECT_EQ(reparsed.ToString(), rule.ToString());
}

TEST(NegationParseTest, UnsafeNegationRejected) {
  // y appears only in the negated atom: unsafe.
  Result<Rule> rule = ParseRule("Company(x), not Owns(x, y) -> Solo(x).");
  ASSERT_TRUE(rule.ok());  // parse succeeds...
  EXPECT_FALSE(rule.value().Validate().ok());  // ...validation rejects
}

TEST(NegationChaseTest, SetDifference) {
  Program program = ParseProgram(R"(
n: Company(x), not Bank(x) -> NonBank(x).
)")
                        .value();
  std::vector<Fact> edb = {{"Company", {S("A")}},
                           {"Company", {S("B")}},
                           {"Bank", {S("A")}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto nonbanks = result.value().FactsOf("NonBank");
  ASSERT_EQ(nonbanks.size(), 1u);
  EXPECT_EQ(nonbanks[0].args[0], S("B"));
}

TEST(NegationChaseTest, NegationOverDerivedPredicate) {
  // "Independent" companies: no one controls them (other than themselves).
  Program program = ParseProgram(R"(
c: Own(x, y, s), s > 0.5 -> Controlled(y).
i: Company(x), not Controlled(x) -> Independent(x).
)")
                        .value();
  std::vector<Fact> edb = {{"Company", {S("A")}},
                           {"Company", {S("B")}},
                           {"Own", {S("A"), S("B"), D(0.6)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().Find({"Independent", {S("A")}}).ok());
  EXPECT_FALSE(result.value().Find({"Independent", {S("B")}}).ok());
}

TEST(NegationChaseTest, StratifiedThreeLevels) {
  Program program = ParseProgram(R"(
r1: Edge(x, y) -> Reach(y).
r2: Node(x), not Reach(x) -> Root(x).
r3: Root(x), Edge(x, y) -> RootEdge(x, y).
)")
                        .value();
  std::vector<Fact> edb = {
      {"Node", {I(1)}}, {"Node", {I(2)}}, {"Node", {I(3)}},
      {"Edge", {I(1), I(2)}}, {"Edge", {I(2), I(3)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok());
  auto roots = result.value().FactsOf("Root");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].args[0], I(1));
  EXPECT_EQ(result.value().FactsOf("RootEdge").size(), 1u);
}

TEST(NegationChaseTest, NegationThroughRecursionRejected) {
  Program program = ParseProgram(R"(
p: P(x), not Q(x) -> Q(x).
)")
                        .value();
  auto result = ChaseEngine().Run(program, {{"P", {I(1)}}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("stratifiable"),
            std::string::npos);
}

TEST(StratificationTest, NoNegationSingleStratum) {
  Program program = ParseProgram(R"(
a: P(x) -> Q(x).
b: Q(x) -> R(x).
)")
                        .value();
  auto strata = RuleStrata(program);
  ASSERT_TRUE(strata.ok());
  EXPECT_EQ(strata.value().size(), 1u);
  EXPECT_EQ(strata.value()[0].size(), 2u);
}

TEST(StratificationTest, NegationSplitsStrata) {
  Program program = ParseProgram(R"(
a: P(x) -> Q(x).
b: P(x), not Q(x) -> R(x).
)")
                        .value();
  auto strata = RuleStrata(program);
  ASSERT_TRUE(strata.ok());
  ASSERT_EQ(strata.value().size(), 2u);
  EXPECT_EQ(strata.value()[0], (std::vector<int>{0}));  // rule a first
  EXPECT_EQ(strata.value()[1], (std::vector<int>{1}));
}

TEST(StratificationTest, LevelsAssigned) {
  Program program = ParseProgram(R"(
a: P(x) -> Q(x).
b: P(x), not Q(x) -> R(x).
c: R(x), not Q(x) -> T(x).
)")
                        .value();
  auto levels = StratifyProgram(program);
  ASSERT_TRUE(levels.ok());
  EXPECT_EQ(levels.value().at("P"), 0);
  EXPECT_EQ(levels.value().at("Q"), 0);
  EXPECT_EQ(levels.value().at("R"), 1);
  EXPECT_EQ(levels.value().at("T"), 1);
}

TEST(ConstraintParseTest, BangHeadParses) {
  Result<Rule> rule = ParseRule("c1: Own(x, y, s), s > 1 -> !.");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_TRUE(rule.value().is_constraint);
  EXPECT_TRUE(rule.value().head.predicate.empty());
  EXPECT_EQ(rule.value().ToString(), "c1: Own(x, y, s), s > 1 -> !.");
}

TEST(ConstraintParseTest, ConstraintWithAggregateRejected) {
  Result<Rule> rule = ParseRule("c: P(x, v), t = sum(v) -> !.");
  ASSERT_TRUE(rule.ok());
  EXPECT_FALSE(rule.value().Validate().ok());
}

TEST(ConstraintChaseTest, ViolationsReported) {
  Program program = ParseProgram(R"(
c1: Own(x, y, s), s > 1 -> !.
)")
                        .value();
  std::vector<Fact> edb = {{"Own", {S("A"), S("B"), D(0.6)}},
                           {"Own", {S("A"), S("C"), D(1.2)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().violations.size(), 1u);
  const ConstraintViolation& violation = result.value().violations[0];
  const ChaseGraph& graph = result.value().graph;
  EXPECT_EQ(graph.RuleLabel(violation.rule_index), "c1");
  EXPECT_EQ(violation.values, (std::vector<Value>{S("A"), S("C"), D(1.2)}));
  EXPECT_EQ(violation.ToString(graph),
            "constraint 'c1' violated with {x=\"A\", y=\"C\", s=1.2}");
}

TEST(ConstraintChaseTest, ViolationsSeeDerivedFacts) {
  // Mutual control between distinct entities is flagged.
  Program program = ParseProgram(R"(
s1: Own(x, y, s), s > 0.5 -> Control(x, y).
c1: Control(x, y), Control(y, x), x != y -> !.
)")
                        .value();
  std::vector<Fact> edb = {{"Own", {S("A"), S("B"), D(0.6)}},
                           {"Own", {S("B"), S("A"), D(0.7)}}};
  auto result = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(result.ok());
  // Both orientations of the symmetric pair match.
  EXPECT_EQ(result.value().violations.size(), 2u);
}

TEST(ConstraintChaseTest, SatisfiedConstraintNoViolations) {
  Program program = ParseProgram("c1: Own(x, y, s), s > 1 -> !.").value();
  auto result =
      ChaseEngine().Run(program, {{"Own", {S("A"), S("B"), D(0.6)}}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().violations.empty());
}

TEST(ConstraintChaseTest, ConstraintWithNegation) {
  // Every company must have a registered capital record. A direct
  // `not HasCapital(x, p)` is unsafe (p unbound), so the constraint goes
  // through a 1-ary marker.
  Result<Program> unsafe = ParseProgram(R"(
c1: Company(x), not HasCapital(x, p) -> !.
)");
  EXPECT_FALSE(unsafe.ok());
  Program fixed = ParseProgram(R"(
m: HasCapital(x, p) -> Capitalized(x).
c1: Company(x), not Capitalized(x) -> !.
)")
                      .value();
  auto result = ChaseEngine().Run(
      fixed, {{"Company", {S("A")}},
              {"Company", {S("B")}},
              {"HasCapital", {S("A"), I(5)}}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().violations.size(), 1u);
  const ConstraintViolation& violation = result.value().violations[0];
  EXPECT_EQ(violation.ToString(result.value().graph),
            "constraint 'c1' violated with {x=\"B\"}");
}

TEST(NegationExplanationTest, NegationDerivedFactExplainedViaFallback) {
  // Independent(x) is derived through negation; its proof contains no
  // critical-predicate fact, so the mapper falls back to ground
  // verbalization — which must spell out the negated condition.
  Result<Program> program = ParseProgram(R"(
@goal Independent.
cbo: Own(x, y, s), s > 0.5, x != y -> ControlledByOther(y).
ind: Company(x), not ControlledByOther(x) -> Independent(x).
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  DomainGlossary glossary;
  ASSERT_TRUE(glossary
                  .Register("Own", {"<x> owns <s> of the shares of <y>",
                                    {"x", "y", "s"},
                                    {NumberStyle::kPlain, NumberStyle::kPlain,
                                     NumberStyle::kPercent}})
                  .ok());
  ASSERT_TRUE(glossary
                  .Register("Company",
                            {"<x> is a business corporation", {"x"}, {}})
                  .ok());
  ASSERT_TRUE(glossary
                  .Register("ControlledByOther",
                            {"<x> is controlled by another entity", {"x"}, {}})
                  .ok());
  ASSERT_TRUE(glossary
                  .Register("Independent",
                            {"<x> is an independent company", {"x"}, {}})
                  .ok());
  auto explainer =
      Explainer::Create(std::move(program).value(), std::move(glossary));
  ASSERT_TRUE(explainer.ok()) << explainer.status().ToString();
  std::vector<Fact> edb = {{"Company", {S("A")}},
                           {"Company", {S("B")}},
                           {"Own", {S("A"), S("B"), D(0.7)}}};
  auto chase = ChaseEngine().Run(explainer.value()->program(), edb);
  ASSERT_TRUE(chase.ok());
  auto text =
      explainer.value()->Explain(chase.value(), {"Independent", {S("A")}});
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text.value().find(
                "it is not the case that A is controlled by another entity"),
            std::string::npos)
      << text.value();
  EXPECT_NE(text.value().find("A is an independent company"),
            std::string::npos);
}

}  // namespace
}  // namespace templex
