// Incremental chase extension: monotone programs absorb new facts by
// re-deriving only what the delta enables, with results identical to a
// from-scratch run.

#include <gtest/gtest.h>

#include "apps/generators.h"
#include "apps/programs.h"
#include "datalog/parser.h"
#include "engine/chase.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value D(double d) { return Value::Double(d); }

// Facts of a chase as a sorted multiset of strings, for equivalence checks.
std::multiset<std::string> AllFacts(const ChaseResult& chase) {
  std::multiset<std::string> facts;
  for (FactId id = 0; id < chase.graph.size(); ++id) {
    facts.insert(chase.graph.node(id).fact.ToString());
  }
  return facts;
}

TEST(ExtendTest, MatchesFromScratchRunOnControl) {
  Program program = CompanyControlProgram();
  std::vector<Fact> base_edb = {{"Own", {S("A"), S("B"), D(0.6)}},
                                {"Own", {S("B"), S("C"), D(0.7)}}};
  std::vector<Fact> extra = {{"Own", {S("C"), S("E"), D(0.9)}},
                             {"Own", {S("E"), S("F"), D(0.8)}}};
  ChaseEngine engine;
  auto base = engine.Run(program, base_edb);
  ASSERT_TRUE(base.ok());
  auto extended = engine.Extend(std::move(base).value(), program, extra);
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();

  std::vector<Fact> all = base_edb;
  all.insert(all.end(), extra.begin(), extra.end());
  auto scratch = engine.Run(program, all);
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(AllFacts(extended.value()), AllFacts(scratch.value()));
  EXPECT_TRUE(
      extended.value().Find({"Control", {S("A"), S("F")}}).ok());
}

TEST(ExtendTest, AggregationStateCarriesAcrossExtension) {
  // Joint control only materializes once the second minority stake
  // arrives: the aggregate state from the base run must be reused.
  Program program = CompanyControlProgram();
  std::vector<Fact> base_edb = {{"Own", {S("X"), S("Z1"), D(0.6)}},
                                {"Own", {S("X"), S("Z2"), D(0.6)}},
                                {"Own", {S("Z1"), S("Y"), D(0.3)}}};
  ChaseEngine engine;
  auto base = engine.Run(program, base_edb);
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(base.value().Find({"Control", {S("X"), S("Y")}}).ok());
  auto extended = engine.Extend(std::move(base).value(), program,
                                {{"Own", {S("Z2"), S("Y"), D(0.3)}}});
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  auto control = extended.value().Find({"Control", {S("X"), S("Y")}});
  ASSERT_TRUE(control.ok());
  // Both contributions appear in the provenance, 0.3 + 0.3 = 0.6.
  EXPECT_EQ(extended.value()
                .graph.node(control.value())
                .derivation.contributions.size(),
            2u);
}

TEST(ExtendTest, StressCascadePropagatesFromNewShock) {
  Program program = StressTestProgram();
  Rng rng(7);
  SampledInstance instance = SampleStressCascade(7, 2, &rng);
  std::vector<Fact> network;
  Fact shock;
  for (const Fact& fact : instance.edb) {
    if (fact.predicate == "Shock") {
      shock = fact;
    } else {
      network.push_back(fact);
    }
  }
  ChaseEngine engine;
  auto base = engine.Run(program, network);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(base.value().FactsOf("Default").empty());
  auto extended = engine.Extend(std::move(base).value(), program, {shock});
  ASSERT_TRUE(extended.ok());
  EXPECT_TRUE(extended.value().Find(instance.goal).ok());
}

TEST(ExtendTest, RejectsProgramMismatch) {
  ChaseEngine engine;
  auto base = engine.Run(CompanyControlProgram(),
                         {{"Own", {S("A"), S("B"), D(0.6)}}});
  ASSERT_TRUE(base.ok());
  auto extended = engine.Extend(std::move(base).value(),
                                SimplifiedStressTestProgram(), {});
  ASSERT_FALSE(extended.ok());
  EXPECT_EQ(extended.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExtendTest, RejectsNegation) {
  Program program =
      ParseProgram("n: Company(x), not Bank(x) -> NonBank(x).").value();
  ChaseEngine engine;
  auto base = engine.Run(program, {{"Company", {S("A")}}});
  ASSERT_TRUE(base.ok());
  auto extended =
      engine.Extend(std::move(base).value(), program, {{"Bank", {S("A")}}});
  ASSERT_FALSE(extended.ok());
  EXPECT_NE(extended.status().message().find("negation"), std::string::npos);
}

TEST(ExtendTest, ConstraintsRecheckedOverExtendedInstance) {
  Program program = ParseProgram(R"(
s1: Own(x, y, s), s > 0.5 -> Control(x, y).
c1: Own(x, y, s), s > 1 -> !.
)")
                        .value();
  ChaseEngine engine;
  auto base = engine.Run(program, {{"Own", {S("A"), S("B"), D(0.6)}}});
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(base.value().violations.empty());
  auto extended = engine.Extend(std::move(base).value(), program,
                                {{"Own", {S("A"), S("C"), D(1.3)}}});
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended.value().violations.size(), 1u);
}

TEST(ExtendTest, DuplicateAdditionalFactsIgnored) {
  Program program = CompanyControlProgram();
  ChaseEngine engine;
  std::vector<Fact> edb = {{"Own", {S("A"), S("B"), D(0.6)}}};
  auto base = engine.Run(program, edb);
  ASSERT_TRUE(base.ok());
  const int before = base.value().graph.size();
  auto extended = engine.Extend(std::move(base).value(), program, edb);
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(extended.value().graph.size(), before);
}

TEST(ExtendTest, ChainedExtensionsStayConsistent) {
  Program program = CompanyControlProgram();
  ChaseEngine engine;
  auto chase = engine.Run(program, {{"Own", {S("C0"), S("C1"), D(0.7)}}});
  ASSERT_TRUE(chase.ok());
  ChaseResult current = std::move(chase).value();
  for (int hop = 1; hop < 6; ++hop) {
    auto next = engine.Extend(
        std::move(current), program,
        {{"Own",
          {S(("C" + std::to_string(hop)).c_str()),
           S(("C" + std::to_string(hop + 1)).c_str()), D(0.7)}}});
    ASSERT_TRUE(next.ok());
    current = std::move(next).value();
  }
  EXPECT_TRUE(current.Find({"Control", {S("C0"), S("C6")}}).ok());
}

}  // namespace
}  // namespace templex
