// End-to-end reproduction of the paper's running example (§4, Examples
// 4.3-4.8 and Figures 3-8) and the §5 representative scenario, asserting
// every intermediate artifact the paper shows.

#include <gtest/gtest.h>

#include "apps/glossaries.h"
#include "apps/programs.h"
#include "apps/scenario.h"
#include "engine/chase.h"
#include "explain/explainer.h"
#include "llm/omission.h"
#include "llm/simulated_llm.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value I(int64_t i) { return Value::Int(i); }

class PaperWalkthroughTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto explainer = Explainer::Create(SimplifiedStressTestProgram(),
                                       SimplifiedStressTestGlossary());
    ASSERT_TRUE(explainer.ok()) << explainer.status().ToString();
    explainer_ = std::move(explainer).value();
    std::vector<Fact> edb = {
        {"Shock", {S("A"), I(6)}},          {"HasCapital", {S("A"), I(5)}},
        {"HasCapital", {S("B"), I(2)}},     {"HasCapital", {S("C"), I(10)}},
        {"Debts", {S("A"), S("B"), I(7)}},  {"Debts", {S("B"), S("C"), I(2)}},
        {"Debts", {S("B"), S("C"), I(9)}},
    };
    auto chase = ChaseEngine().Run(explainer_->program(), edb);
    ASSERT_TRUE(chase.ok());
    chase_ = std::make_unique<ChaseResult>(std::move(chase).value());
  }

  std::unique_ptr<Explainer> explainer_;
  std::unique_ptr<ChaseResult> chase_;
};

TEST_F(PaperWalkthroughTest, Figure3DependencyGraph) {
  const DependencyGraph& graph = explainer_->analysis().graph;
  EXPECT_TRUE(graph.IsCyclic());
  EXPECT_EQ(graph.leaf(), "Default");
  EXPECT_EQ(graph.CriticalNodes(), (std::vector<std::string>{"Default"}));
}

TEST_F(PaperWalkthroughTest, Figure4And5ReasoningPaths) {
  const StructuralAnalysis& analysis = explainer_->analysis();
  ASSERT_EQ(analysis.simple_paths.size(), 2u);
  ASSERT_EQ(analysis.cycles.size(), 1u);
  // Catalog: 2 simple + 1 cycle + Π2 variant + Γ1 variant = 5.
  EXPECT_EQ(analysis.catalog.size(), 5u);
}

TEST_F(PaperWalkthroughTest, Figure8ChaseGraph) {
  EXPECT_TRUE(chase_->Find({"Default", {S("C")}}).ok());
  FactId risk = chase_->Find({"Risk", {S("C"), I(11)}}).value();
  EXPECT_EQ(chase_->graph.node(risk).derivation.contributions.size(), 2u);
}

TEST_F(PaperWalkthroughTest, Example47ChaseStepSequence) {
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  EXPECT_EQ(proof.RuleLabelSequence(),
            (std::vector<std::string>{"alpha", "beta", "gamma", "beta",
                                      "gamma"}));
}

TEST_F(PaperWalkthroughTest, Example48Explanation) {
  auto text = explainer_->Explain(*chase_, {"Default", {S("C")}});
  ASSERT_TRUE(text.ok());
  // The paper's explanation content, invariant to phrasing: all entities,
  // all amounts, the aggregation decomposition, and defaults of A, B, C.
  const std::string& e = text.value();
  for (const char* snippet :
       {"6M", "5M", "7M", "2M", "9M", "11M", "10M", "sum of 2M and 9M"}) {
    EXPECT_NE(e.find(snippet), std::string::npos) << snippet << "\n" << e;
  }
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  EXPECT_DOUBLE_EQ(OmittedInformationRatio(proof, e), 0.0);
}

TEST_F(PaperWalkthroughTest, Section63TemplateBeatsLlmOnCompleteness) {
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  auto deterministic = explainer_->DeterministicExplanation(proof);
  ASSERT_TRUE(deterministic.ok());
  SimulatedLlm llm;
  auto templated = explainer_->ExplainProof(proof);
  ASSERT_TRUE(templated.ok());
  const double template_omission =
      OmittedInformationRatio(proof, templated.value());
  EXPECT_DOUBLE_EQ(template_omission, 0.0);
  // LLM outputs may omit; by construction they can never beat 0.
  auto para = llm.Paraphrase(deterministic.value());
  ASSERT_TRUE(para.ok());
  EXPECT_GE(OmittedInformationRatio(proof, para.value()), template_omission);
}

TEST(RepresentativeScenarioTest, Section5EndToEnd) {
  RepresentativeScenario scenario = MakeRepresentativeScenario();

  // Company control run + Q_e = {Control(B, D)}.
  auto control_explainer =
      Explainer::Create(CompanyControlProgram(), CompanyControlGlossary());
  ASSERT_TRUE(control_explainer.ok());
  auto control_chase = ChaseEngine().Run(
      control_explainer.value()->program(), scenario.control_edb);
  ASSERT_TRUE(control_chase.ok());
  auto control_text = control_explainer.value()->Explain(
      control_chase.value(), scenario.control_query);
  ASSERT_TRUE(control_text.ok()) << control_text.status().ToString();
  EXPECT_NE(control_text.value().find("60%"), std::string::npos);
  EXPECT_NE(control_text.value().find("55%"), std::string::npos);

  // Stress test run + Q_e = {Default(F)}.
  auto stress_explainer =
      Explainer::Create(StressTestProgram(), StressTestGlossary());
  ASSERT_TRUE(stress_explainer.ok());
  auto stress_chase = ChaseEngine().Run(stress_explainer.value()->program(),
                                        scenario.stress_edb);
  ASSERT_TRUE(stress_chase.ok());
  auto stress_text = stress_explainer.value()->Explain(
      stress_chase.value(), scenario.stress_query);
  ASSERT_TRUE(stress_text.ok()) << stress_text.status().ToString();
  FactId goal = stress_chase.value().Find(scenario.stress_query).value();
  Proof proof = Proof::Extract(stress_chase.value().graph, goal);
  EXPECT_DOUBLE_EQ(OmittedInformationRatio(proof, stress_text.value()), 0.0);
}

}  // namespace
}  // namespace templex
