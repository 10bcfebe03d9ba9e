// Query planner tests (engine/query_planner.h): the eligibility check's
// three refusals, how a refusal resolves a forced mode, and a verdict
// table over every (IDB predicate, adornment) pair of the financial apps
// and the example programs.

#include "engine/query_planner.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/programs.h"
#include "datalog/parser.h"
#include "engine/stratification.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value N() { return Value::Null(); }

std::string Refusal(const Program& program, const Fact& goal) {
  return PlanQuery(program, {}, goal, EvalMode::kQsqr).qsqr_refusal;
}

Program Parse(const char* text) {
  Result<Program> program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program.value();
}

TEST(QueryPlannerTest, RefusesBoundAggregateResult) {
  // sum's result variable cannot be seeded: a bound second position on
  // Total would have to flow through the aggregate.
  Program program = Parse(R"(
total: Own(x, y, s), ts = sum(s) -> Total(x, ts).
)");
  std::string refusal = Refusal(program, {"Total", {S("A"), S("B")}});
  EXPECT_NE(refusal.find("aggregate"), std::string::npos) << refusal;
  // Binding only the group variable is fine.
  EXPECT_EQ(Refusal(program, {"Total", {S("A"), N()}}), "");
}

TEST(QueryPlannerTest, RefusesExistentialCone) {
  Program program = Parse(R"(
officer: Company(x) -> Officer(x, z).
)");
  std::string refusal = Refusal(program, {"Officer", {S("A"), N()}});
  EXPECT_NE(refusal.find("existential"), std::string::npos) << refusal;
}

TEST(QueryPlannerTest, RefusesWhenGuardBreaksStratification) {
  // The original stratifies: {H, P} is a purely positive recursive
  // component and B sits below it. The magic rule for the negated B@b
  // would carry rule h's positive prefix (m@H@b, P@b), closing the cycle
  // H@b -neg-> B@b -> m@B@b -> P@b -> H@b.
  Program program = Parse(R"(
h0: Seed(x) -> H(x).
h: P(x), not B(x) -> H(x).
p: E(x, y), H(y) -> P(x).
b: E2(x) -> B(x).
)");
  ASSERT_TRUE(StratifyProgram(program).ok());
  std::string refusal = Refusal(program, {"H", {S("a")}});
  EXPECT_NE(refusal.find("stratify"), std::string::npos) << refusal;
  EXPECT_NE(refusal.find("not B(x)"), std::string::npos) << refusal;
}

TEST(QueryPlannerTest, RefusalResolvesForcedQsqrToMaterialize) {
  Program program = Parse(R"(
officer: Company(x) -> Officer(x, z).
)");
  const Fact goal("Officer", {S("A"), N()});
  QueryPlan plan = PlanQuery(program, {}, goal, EvalMode::kQsqr);
  EXPECT_EQ(plan.mode, EvalMode::kMaterialize);
  ASSERT_FALSE(plan.qsqr_refusal.empty());
  EXPECT_EQ(plan.reason,
            "query-driven evaluation refused: " + plan.qsqr_refusal);

  // The verdict is carried whatever mode was requested.
  QueryPlan forced = PlanQuery(program, {}, goal, EvalMode::kMaterialize);
  EXPECT_EQ(forced.mode, EvalMode::kMaterialize);
  EXPECT_EQ(forced.reason, "forced by --eval-mode=materialize");
  EXPECT_EQ(forced.qsqr_refusal, plan.qsqr_refusal);

  // An eligible goal keeps the forced mode.
  QueryPlan eligible = PlanQuery(CompanyControlProgram(), {},
                                 {"Control", {S("A"), N()}}, EvalMode::kQsqr);
  EXPECT_EQ(eligible.mode, EvalMode::kQsqr);
  EXPECT_EQ(eligible.qsqr_refusal, "");
}

// Verdict lines "<program> <predicate>: <adornment><+|-> ..." for every
// IDB predicate, adornments from all-bound to all-free; '+' is eligible.
std::vector<std::string> VerdictLines(const std::string& name,
                                      const Program& program) {
  std::map<std::string, int> arity;
  for (const Rule& rule : program.rules()) {
    if (!rule.is_constraint) arity[rule.head.predicate] = rule.head.arity();
  }
  std::vector<std::string> lines;
  for (const std::string& predicate : program.IntensionalPredicates()) {
    const int n = arity[predicate];
    std::string line = name + " " + predicate + ":";
    for (int mask = (1 << n) - 1; mask >= 0; --mask) {
      Fact goal;
      goal.predicate = predicate;
      std::string adornment;
      for (int i = 0; i < n; ++i) {
        const bool bound = (mask >> (n - 1 - i)) & 1;
        adornment.push_back(bound ? 'b' : 'f');
        goal.args.push_back(bound ? S("k") : N());
      }
      line += " " + adornment + (Refusal(program, goal).empty() ? "+" : "-");
    }
    lines.push_back(line);
  }
  return lines;
}

TEST(QueryPlannerTest, VerdictTable) {
  std::vector<std::pair<std::string, Program>> programs = {
      {"company_control", CompanyControlProgram()},
      {"simplified_stress_test", SimplifiedStressTestProgram()},
      {"stress_test", StressTestProgram()},
      {"golden_power", GoldenPowerProgram()},
      {"close_links", CloseLinksProgram()},
      // tests/data/control.vada, the CLI fixture.
      {"control_vada", Parse(R"(
@goal Control.
sigma1: Own(x, y, s), s > 0.5 -> Control(x, y).
sigma2: Company(x) -> Control(x, x).
sigma3: Control(x, z), Own(z, y, s), ts = sum(s, [z]), ts > 0.5 -> Control(x, y).
c1: Own(x, y, s), s > 1 -> !.
)")},
      // The parsed programs of tests/engine/query_vs_materialize_test.cc.
      {"transitive_closure", Parse(R"(
base: Edge(x, y) -> Path(x, y).
step: Edge(x, z), Path(z, y) -> Path(x, y).
)")},
      {"stratified_negation", Parse(R"(
flag: Audit(x) -> Flagged(x).
ok: Company(x), not Flagged(x) -> Clean(x).
pair: Edge(x, y), Clean(x), Clean(y) -> CleanEdge(x, y).
)")},
      {"strat_break", Parse(R"(
h0: Seed(x) -> H(x).
h: P(x), not B(x) -> H(x).
p: E(x, y), H(y) -> P(x).
b: E2(x) -> B(x).
)")},
      {"existential", Parse(R"(
officer: Company(x) -> Officer(x, z).
)")},
      {"aggregate_total", Parse(R"(
total: Own(x, y, s), ts = sum(s) -> Total(x, ts).
)")},
  };
  // Recorded from the magic-set rewrite this check replaced (78 pairs).
  const std::vector<std::string> expected = {
      "company_control Control: bb+ bf+ fb+ ff+",
      "simplified_stress_test Default: b+ f+",
      "simplified_stress_test Risk: bb- bf+ fb- ff+",
      "stress_test Default: b+ f+",
      "stress_test Risk: bbb- bbf- bfb+ bff+ fbb- fbf- ffb+ fff+",
      "golden_power Control: bb+ bf+ fb+ ff+",
      "golden_power GoldenPower: bb+ bf+ fb+ ff+",
      "golden_power Review: bbb+ bbf+ bfb+ bff+ fbb+ fbf+ ffb+ fff+",
      "close_links IntOwn: bbb+ bbf+ bfb+ bff+ fbb+ fbf+ ffb+ fff+",
      "close_links CloseLink: bb+ bf+ fb+ ff+",
      "control_vada Control: bb+ bf+ fb+ ff+",
      "transitive_closure Path: bb+ bf+ fb+ ff+",
      "stratified_negation Flagged: b+ f+",
      "stratified_negation Clean: b+ f+",
      "stratified_negation CleanEdge: bb- bf- fb- ff-",
      "strat_break H: b- f-",
      "strat_break P: b- f-",
      "strat_break B: b+ f+",
      "existential Officer: bb- bf- fb- ff-",
      "aggregate_total Total: bb- bf+ fb- ff+",
  };
  std::vector<std::string> actual;
  for (const auto& [name, program] : programs) {
    for (std::string& line : VerdictLines(name, program)) {
      actual.push_back(std::move(line));
    }
  }
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace templex
