// What-if simulation: the analyst's shock exercise over a deployed
// application, diffing derived knowledge against the baseline run.

#include <gtest/gtest.h>

#include "apps/application.h"
#include "apps/glossaries.h"
#include "apps/programs.h"
#include "apps/scenario.h"
#include "datalog/parser.h"
#include "obs/event_log.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value I(int64_t i) { return Value::Int(i); }

std::unique_ptr<KnowledgeGraphApplication> StressApp() {
  auto app = KnowledgeGraphApplication::Create(StressTestProgram(),
                                               StressTestGlossary());
  EXPECT_TRUE(app.ok());
  RepresentativeScenario scenario = MakeRepresentativeScenario();
  // Baseline: the network with NO shock.
  std::vector<Fact> network;
  for (const Fact& fact : scenario.stress_edb) {
    if (fact.predicate != "Shock") network.push_back(fact);
  }
  app.value()->AddFacts(std::move(network));
  EXPECT_TRUE(app.value()->Run().ok());
  return std::move(app).value();
}

TEST(WhatIfTest, RequiresBaselineRun) {
  auto app = KnowledgeGraphApplication::Create(StressTestProgram(),
                                               StressTestGlossary());
  ASSERT_TRUE(app.ok());
  EXPECT_EQ(app.value()->WhatIf({{"Shock", {S("A"), I(14)}}}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(WhatIfTest, BaselineWithoutShockDerivesNoDefaults) {
  auto app = StressApp();
  EXPECT_TRUE(
      app->Query({"Default", {Value::Null()}}).empty());
}

TEST(WhatIfTest, ShockHypothesisYieldsCascadeAsNewFacts) {
  auto app = StressApp();
  auto scenario = app->WhatIf({{"Shock", {S("A"), I(14)}}});
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  int defaults = 0;
  for (const Fact& fact : scenario.value().new_facts) {
    if (fact.predicate == "Default") ++defaults;
  }
  EXPECT_EQ(defaults, 4);  // A, B, C, F (§5)
  // The application's own state is untouched.
  EXPECT_TRUE(app->Query({"Default", {Value::Null()}}).empty());
}

TEST(WhatIfTest, SmallerShockSmallerCascade) {
  auto app = StressApp();
  auto big = app->WhatIf({{"Shock", {S("A"), I(14)}}});
  auto small = app->WhatIf({{"Shock", {S("A"), I(4)}}});  // below capital 5
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small.value().new_facts.empty());
  EXPECT_GT(big.value().new_facts.size(), 0u);
}

TEST(WhatIfTest, NewFactsExplainableUnderTheScenario) {
  auto app = StressApp();
  auto scenario = app->WhatIf({{"Shock", {S("A"), I(14)}}});
  ASSERT_TRUE(scenario.ok());
  auto text =
      app->ExplainUnder(scenario.value(), {"Default", {S("F")}});
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text.value().find("14M"), std::string::npos);
  EXPECT_NE(text.value().find("F is in default"), std::string::npos);
}

TEST(WhatIfTest, HypothesisNotExplainableAgainstBaseline) {
  auto app = StressApp();
  auto scenario = app->WhatIf({{"Shock", {S("A"), I(14)}}});
  ASSERT_TRUE(scenario.ok());
  // The baseline chase has no Default(F): Explain on the app still fails.
  EXPECT_EQ(app->Explain({"Default", {S("F")}}).status().code(),
            StatusCode::kNotFound);
}

TEST(WhatIfTest, NegationProgramFallsBackToFullRechase) {
  // WhatIf prefers incremental extension but must stay correct for
  // stratified programs by re-chasing: adding a Bank fact RETRACTS a
  // negation-derived conclusion in the hypothetical world.
  Result<Program> program = ParseProgram(R"(
@goal NonBank.
n: Company(x), not Bank(x) -> NonBank(x).
)");
  ASSERT_TRUE(program.ok());
  DomainGlossary glossary;
  ASSERT_TRUE(glossary
                  .Register("Company",
                            {"<x> is a business corporation", {"x"}, {}})
                  .ok());
  ASSERT_TRUE(glossary.Register("Bank", {"<x> is a bank", {"x"}, {}}).ok());
  ASSERT_TRUE(
      glossary.Register("NonBank", {"<x> is not a bank", {"x"}, {}}).ok());
  auto app = KnowledgeGraphApplication::Create(std::move(program).value(),
                                               std::move(glossary));
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  app.value()->AddFacts(
      {{"Company", {S("A")}}, {"Company", {S("B")}}});
  ASSERT_TRUE(app.value()->Run().ok());
  EXPECT_EQ(app.value()->Query({"NonBank", {Value::Null()}}).size(), 2u);
  auto hypothesis = app.value()->WhatIf({{"Bank", {S("A")}}});
  ASSERT_TRUE(hypothesis.ok()) << hypothesis.status().ToString();
  // Under the hypothesis, A is no longer a NonBank.
  EXPECT_FALSE(
      hypothesis.value().chase.Find({"NonBank", {S("A")}}).ok());
  EXPECT_TRUE(hypothesis.value().chase.Find({"NonBank", {S("B")}}).ok());
}

TEST(WhatIfTest, FailingHypothesisOnMonotoneProgramDoesNotRechase) {
  // The program has no negation, so the what-if extends the baseline; a
  // hypothesis that breaks the rule's arithmetic fails that extension, and
  // re-chasing base plus hypothesis would only fail again.
  Result<Program> program = ParseProgram(R"(
@goal Pct.
p: Own(x, y, s), t = s * 100 -> Pct(x, y, t).
)");
  ASSERT_TRUE(program.ok());
  DomainGlossary glossary;
  ASSERT_TRUE(glossary
                  .Register("Own", {"<x> owns <s> of <y>", {"x", "y", "s"},
                                    {}})
                  .ok());
  ASSERT_TRUE(glossary
                  .Register("Pct", {"<x> owns <t>% of <y>", {"x", "y", "t"},
                                    {}})
                  .ok());
  auto app = KnowledgeGraphApplication::Create(std::move(program).value(),
                                               std::move(glossary));
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  app.value()->AddFacts({{"Own", {S("A"), S("B"), Value::Double(0.5)}}});
  ASSERT_TRUE(app.value()->Run().ok());

  obs::EventLog log;
  ChaseConfig config;
  config.event_log = &log;
  auto hypothesis =
      app.value()->WhatIf({{"Own", {S("A"), S("C"), S("lots")}}}, config);
  EXPECT_EQ(hypothesis.status().code(), StatusCode::kInvalidArgument);
  bool extended = false;
  for (const obs::Event& event : log.RecentEvents()) {
    if (event.name == "extend.start") extended = true;
    EXPECT_FALSE(extended && event.name == "run.start")
        << "the failed what-if re-chased";
  }
  EXPECT_TRUE(extended);
}

}  // namespace
}  // namespace templex
