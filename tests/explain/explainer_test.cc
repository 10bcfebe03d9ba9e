#include "explain/explainer.h"

#include <gtest/gtest.h>

#include "apps/glossaries.h"
#include "apps/programs.h"
#include "datalog/parser.h"
#include "engine/chase.h"
#include "llm/omission.h"
#include "llm/simulated_llm.h"

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

class ExplainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto explainer = Explainer::Create(SimplifiedStressTestProgram(),
                                       SimplifiedStressTestGlossary());
    ASSERT_TRUE(explainer.ok()) << explainer.status().ToString();
    explainer_ = std::move(explainer).value();
    auto chase = ChaseEngine().Run(explainer_->program(), Figure8Edb());
    ASSERT_TRUE(chase.ok());
    chase_ = std::make_unique<ChaseResult>(std::move(chase).value());
  }

  std::unique_ptr<Explainer> explainer_;
  std::unique_ptr<ChaseResult> chase_;
};

TEST_F(ExplainerTest, CreateRejectsIncompleteGlossary) {
  DomainGlossary partial;
  ASSERT_TRUE(
      partial.Register("Default", {"<f> is in default", {"f"}, {}}).ok());
  auto result = Explainer::Create(SimplifiedStressTestProgram(), partial);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExplainerTest, Example48ExplanationContent) {
  auto text = explainer_->Explain(*chase_, {"Default", {S("C")}});
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const std::string& explanation = text.value();
  // Example 4.8's explanation mentions the shock, all three institutions,
  // every amount, and the aggregation decomposition "2M and 9M".
  for (const char* snippet :
       {"6M", "5M", "A", "B", "C", "7M", "2M", "9M", "11M", "10M",
        "sum of 2M and 9M"}) {
    EXPECT_NE(explanation.find(snippet), std::string::npos)
        << "missing: " << snippet << "\nin: " << explanation;
  }
}

TEST_F(ExplainerTest, ExplanationIsCompleteByConstruction) {
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  auto text = explainer_->ExplainProof(proof);
  ASSERT_TRUE(text.ok());
  EXPECT_DOUBLE_EQ(OmittedInformationRatio(proof, text.value()), 0.0);
}

TEST_F(ExplainerTest, TemplateExplanationIsMoreCompactThanDeterministic) {
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  auto templated = explainer_->ExplainProof(proof);
  auto deterministic = explainer_->DeterministicExplanation(proof);
  ASSERT_TRUE(templated.ok());
  ASSERT_TRUE(deterministic.ok());
  EXPECT_LT(templated.value().size(), deterministic.value().size());
}

TEST_F(ExplainerTest, ExplainingExtensionalFact) {
  auto text = explainer_->Explain(*chase_, {"Shock", {S("A"), I(6)}});
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("factual knowledge"), std::string::npos);
}

TEST_F(ExplainerTest, ExplainingUnknownFactErrors) {
  auto text = explainer_->Explain(*chase_, {"Default", {S("Z")}});
  EXPECT_EQ(text.status().code(), StatusCode::kNotFound);
}

TEST_F(ExplainerTest, UnenhancedModeUsesDeterministicTemplates) {
  ExplainerOptions options;
  options.enhance = false;
  auto plain = Explainer::Create(SimplifiedStressTestProgram(),
                                 SimplifiedStressTestGlossary(), options);
  ASSERT_TRUE(plain.ok());
  auto text = plain.value()->Explain(*chase_, {"Default", {S("A")}});
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(),
            "Since a shock amounting to 6M euros affects A, and A is a "
            "financial institution with capital of 5M euros, and 6M is "
            "higher than 5M, then A is in default.");
}

TEST_F(ExplainerTest, LlmEnhancedPipelineStaysComplete) {
  // The §4.4 automated pipeline: templates enhanced by an LLM (here the
  // simulated one, with a 100% hallucination rate so every segment must
  // fall back) — explanations stay complete either way.
  SimulatedLlmOptions llm_options;
  llm_options.rephrase_token_drop = 1.0;
  SimulatedLlm hallucinating(llm_options);
  ExplainerOptions options;
  options.enhancement_llm = &hallucinating;
  auto guarded = Explainer::Create(SimplifiedStressTestProgram(),
                                   SimplifiedStressTestGlossary(), options);
  ASSERT_TRUE(guarded.ok());
  // All enhancement fell back: effective text == deterministic text.
  for (const ExplanationTemplate& tmpl : guarded.value()->templates()) {
    EXPECT_EQ(tmpl.EffectiveText(), tmpl.DeterministicText());
  }
  auto text = guarded.value()->Explain(*chase_, {"Default", {S("C")}});
  ASSERT_TRUE(text.ok());
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  EXPECT_DOUBLE_EQ(OmittedInformationRatio(proof, text.value()), 0.0);

  // A well-behaved LLM (no drops) produces enhanced, still-complete texts.
  SimulatedLlmOptions clean_options;
  clean_options.rephrase_token_drop = 0.0;
  SimulatedLlm clean(clean_options);
  options.enhancement_llm = &clean;
  auto enhanced = Explainer::Create(SimplifiedStressTestProgram(),
                                    SimplifiedStressTestGlossary(), options);
  ASSERT_TRUE(enhanced.ok());
  auto enhanced_text =
      enhanced.value()->Explain(*chase_, {"Default", {S("C")}});
  ASSERT_TRUE(enhanced_text.ok());
  EXPECT_DOUBLE_EQ(OmittedInformationRatio(proof, enhanced_text.value()),
                   0.0);
}

TEST_F(ExplainerTest, TemplatesExposed) {
  EXPECT_EQ(explainer_->templates().size(),
            explainer_->analysis().catalog.size());
  EXPECT_FALSE(explainer_->templates().empty());
}

TEST(ExplainerControlTest, Figure15StyleJointControl) {
  auto explainer =
      Explainer::Create(CompanyControlProgram(), CompanyControlGlossary());
  ASSERT_TRUE(explainer.ok());
  // IrishBank controls FondoItaliano (83%) and FrenchPLC (54%); the two
  // jointly own 57% of MadridCredit.
  std::vector<Fact> edb = {
      {"Own", {S("IrishBank"), S("FondoItaliano"), D(0.83)}},
      {"Own", {S("IrishBank"), S("FrenchPLC"), D(0.54)}},
      {"Own", {S("FondoItaliano"), S("MadridCredit"), D(0.36)}},
      {"Own", {S("FrenchPLC"), S("MadridCredit"), D(0.21)}},
  };
  auto chase = ChaseEngine().Run(explainer.value()->program(), edb);
  ASSERT_TRUE(chase.ok());
  auto text = chase.value().Find({"Control", {S("IrishBank"), S("MadridCredit")}});
  ASSERT_TRUE(text.ok());
  auto explanation = explainer.value()->Explain(
      chase.value(), {"Control", {S("IrishBank"), S("MadridCredit")}});
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  for (const char* snippet : {"IrishBank", "FondoItaliano", "FrenchPLC",
                              "MadridCredit", "83%", "54%", "36%", "21%",
                              "57%"}) {
    EXPECT_NE(explanation.value().find(snippet), std::string::npos)
        << "missing " << snippet << "\nin: " << explanation.value();
  }
}

TEST(ExplainerControlTest, AutoControlChainExplained) {
  auto explainer =
      Explainer::Create(CompanyControlProgram(), CompanyControlGlossary());
  ASSERT_TRUE(explainer.ok());
  std::vector<Fact> edb = {
      {"Company", {S("A")}},
      {"Own", {S("A"), S("B"), D(0.7)}},
      {"Own", {S("A"), S("C"), D(0.3)}},
      {"Own", {S("B"), S("C"), D(0.25)}},
  };
  auto chase = ChaseEngine().Run(explainer.value()->program(), edb);
  ASSERT_TRUE(chase.ok());
  auto explanation =
      explainer.value()->Explain(chase.value(), {"Control", {S("A"), S("C")}});
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  // Complete: mentions the shares 30%, 25% and the joint 55%.
  for (const char* snippet : {"30%", "25%", "55%"}) {
    EXPECT_NE(explanation.value().find(snippet), std::string::npos)
        << explanation.value();
  }
}

// A multi-contributor aggregation over a body assignment: each
// contributor's assigned value is rebuilt from its own parent facts, so
// <l> lists both losses instead of repeating the step's last one.
TEST(ExplainerAggregateAssignmentTest, EachContributorShowsItsAssignment) {
  Result<Program> program = ParseProgram(R"(
@goal Default.
alpha: Shock(f, s), HasCapital(f, p1), s > p1 -> Default(f).
beta:  Default(d), Debts(d, c, v), l = v * 0.5, e = sum(l) -> Risk(c, e).
gamma: HasCapital(c, p2), Risk(c, e), p2 < e -> Default(c).
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto explainer = Explainer::Create(std::move(program).value(),
                                     SimplifiedStressTestGlossary());
  ASSERT_TRUE(explainer.ok()) << explainer.status().ToString();
  std::vector<Fact> edb = {
      {"Shock", {S("A"), I(6)}},         {"HasCapital", {S("A"), I(5)}},
      {"Shock", {S("B"), I(9)}},         {"HasCapital", {S("B"), I(2)}},
      {"HasCapital", {S("C"), I(5)}},    {"Debts", {S("A"), S("C"), I(4)}},
      {"Debts", {S("B"), S("C"), I(8)}},
  };
  auto chase = ChaseEngine().Run(explainer.value()->program(), edb);
  ASSERT_TRUE(chase.ok()) << chase.status().ToString();
  auto explanation =
      explainer.value()->Explain(chase.value(), {"Default", {S("C")}});
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  EXPECT_EQ(explanation.value(),
            "Since a shock amounting to 6M and 9M euros affects A and B, A "
            "and B is a financial institution with capital of 5M and 2M "
            "euros, and 6M and 9M is higher than 5M and 2M, A and B is in "
            "default. As a result, C is at risk of defaulting given its loan "
            "of 6M euros of exposures to a defaulted debtor, since A and B "
            "has an amount of 4M and 8M euros of debts with C, 2M and 4M is "
            "4M and 8M times 0.5M, and with 6M given by the sum of 2M and "
            "4M. C is in default, because C is a financial institution with "
            "capital of 5M euros, and 5M is lower than 6M.");
}

TEST(ExplainerCloseLinksTest, ProductChainExplained) {
  auto explainer =
      Explainer::Create(CloseLinksProgram(), CloseLinksGlossary());
  ASSERT_TRUE(explainer.ok()) << explainer.status().ToString();
  std::vector<Fact> edb = {{"Own", {S("A"), S("B"), D(0.5)}},
                           {"Own", {S("B"), S("C"), D(0.5)}}};
  auto chase = ChaseEngine().Run(explainer.value()->program(), edb);
  ASSERT_TRUE(chase.ok());
  auto explanation = explainer.value()->Explain(
      chase.value(), {"CloseLink", {S("A"), S("C")}});
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  EXPECT_NE(explanation.value().find("25%"), std::string::npos)
      << explanation.value();
  EXPECT_NE(explanation.value().find("close link"), std::string::npos);
}

}  // namespace
}  // namespace templex
