#include "explain/verbalizer.h"

#include <gtest/gtest.h>

#include "apps/glossaries.h"
#include "apps/programs.h"
#include "datalog/parser.h"
#include "engine/chase.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value I(int64_t i) { return Value::Int(i); }

class VerbalizerTest : public ::testing::Test {
 protected:
  VerbalizerTest()
      : program_(SimplifiedStressTestProgram()),
        glossary_(SimplifiedStressTestGlossary()),
        verbalizer_(&program_, &glossary_) {}

  Program program_;
  DomainGlossary glossary_;
  Verbalizer verbalizer_;
};

TEST_F(VerbalizerTest, RuleSinceThenShape) {
  auto segment = verbalizer_.VerbalizeRule(*program_.FindRule("alpha"),
                                           /*multi_aggregation=*/false);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  EXPECT_EQ(segment.value().text,
            "Since a shock amounting to <s> euros affects <f>, and <f> is a "
            "financial institution with capital of <p1> euros, and <s> is "
            "higher than <p1>, then <f> is in default.");
}

TEST_F(VerbalizerTest, TokensCarryStyles) {
  auto segment = verbalizer_.VerbalizeRule(*program_.FindRule("alpha"), false);
  ASSERT_TRUE(segment.ok());
  NumberStyle s_style = NumberStyle::kPlain;
  NumberStyle f_style = NumberStyle::kMillions;
  for (const TemplateToken& token : segment.value().tokens) {
    if (token.variable == "s") s_style = token.style;
    if (token.variable == "f") f_style = token.style;
  }
  EXPECT_EQ(s_style, NumberStyle::kMillions);
  EXPECT_EQ(f_style, NumberStyle::kPlain);
}

TEST_F(VerbalizerTest, AggregationTruncatedInBaseVariant) {
  auto segment = verbalizer_.VerbalizeRule(*program_.FindRule("beta"), false);
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ(segment.value().text.find("sum"), std::string::npos);
  EXPECT_FALSE(segment.value().multi_aggregation);
  EXPECT_TRUE(segment.value().aggregate_input_variable.empty());
}

TEST_F(VerbalizerTest, AggregationVerbalizedInMultiVariant) {
  auto segment = verbalizer_.VerbalizeRule(*program_.FindRule("beta"), true);
  ASSERT_TRUE(segment.ok());
  EXPECT_NE(segment.value().text.find("with <e> given by the sum of <v>"),
            std::string::npos);
  EXPECT_TRUE(segment.value().multi_aggregation);
  EXPECT_EQ(segment.value().aggregate_input_variable, "v");
}

TEST_F(VerbalizerTest, AggregateResultInheritsInputStyle) {
  auto segment = verbalizer_.VerbalizeRule(*program_.FindRule("beta"), true);
  ASSERT_TRUE(segment.ok());
  for (const TemplateToken& token : segment.value().tokens) {
    if (token.variable == "e") {
      EXPECT_EQ(token.style, NumberStyle::kMillions);
    }
  }
}

TEST_F(VerbalizerTest, ConditionConstantBorrowsVariableStyle) {
  Program control = CompanyControlProgram();
  DomainGlossary glossary = CompanyControlGlossary();
  Verbalizer verbalizer(&control, &glossary);
  auto segment = verbalizer.VerbalizeRule(*control.FindRule("sigma1"), false);
  ASSERT_TRUE(segment.ok());
  // s > 0.5 verbalizes with the percent style of s: "50%".
  EXPECT_NE(segment.value().text.find("<s> is higher than 50%"),
            std::string::npos);
}

TEST_F(VerbalizerTest, ComparatorWords) {
  EXPECT_EQ(ComparatorToText(Comparator::kGt), "is higher than");
  EXPECT_EQ(ComparatorToText(Comparator::kLt), "is lower than");
  EXPECT_EQ(ComparatorToText(Comparator::kGe), "is at least");
  EXPECT_EQ(ComparatorToText(Comparator::kLe), "is at most");
  EXPECT_EQ(ComparatorToText(Comparator::kEq), "is equal to");
  EXPECT_EQ(ComparatorToText(Comparator::kNe), "is different from");
}

TEST_F(VerbalizerTest, AggregateFunctionWords) {
  EXPECT_EQ(AggregateFunctionToText(AggregateFunction::kSum), "sum");
  EXPECT_EQ(AggregateFunctionToText(AggregateFunction::kProd), "product");
  EXPECT_EQ(AggregateFunctionToText(AggregateFunction::kCount), "count");
}

TEST_F(VerbalizerTest, NegatedAtomsVerbalizedAsAbsence) {
  Rule rule =
      ParseRule("Default(f), not Shock(f, s2) -> Risk(f, s2).").value();
  // (Synthetic rule just for wording; s2 unsafe-ness aside, verbalization
  // is purely syntactic.)
  rule.negative_body[0] = rule.negative_body[0];
  Result<TemplateSegment> segment = verbalizer_.VerbalizeRule(rule, false);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  EXPECT_NE(segment.value().text.find(
                "it is not the case that a shock amounting to <s2> euros "
                "affects <f>"),
            std::string::npos)
      << segment.value().text;
}

TEST_F(VerbalizerTest, DivisionAndNestedExpressionText) {
  Rule rule =
      ParseRule("Debts(d, c, v), r = (v + 1) / 2 -> Risk(c, r).").value();
  Result<TemplateSegment> segment = verbalizer_.VerbalizeRule(rule, false);
  ASSERT_TRUE(segment.ok());
  // Constants in the expression inherit the assigned variable's monetary
  // style.
  EXPECT_NE(segment.value().text.find("<r> is <v> plus 1M divided by 2M"),
            std::string::npos)
      << segment.value().text;
}

TEST_F(VerbalizerTest, EqualityConditionWording) {
  Rule rule =
      ParseRule("Debts(d, c, v), v == 7 -> Risk(c, v).").value();
  Result<TemplateSegment> segment = verbalizer_.VerbalizeRule(rule, false);
  ASSERT_TRUE(segment.ok());
  EXPECT_NE(segment.value().text.find("<v> is equal to 7M"),
            std::string::npos)
      << segment.value().text;
}

TEST_F(VerbalizerTest, AssignmentVerbalization) {
  Program close = CloseLinksProgram();
  DomainGlossary glossary = CloseLinksGlossary();
  Verbalizer verbalizer(&close, &glossary);
  auto segment = verbalizer.VerbalizeRule(*close.FindRule("kappa2"), false);
  ASSERT_TRUE(segment.ok());
  EXPECT_NE(segment.value().text.find("<p> is <s1> times <s2>"),
            std::string::npos);
}

class GroundVerbalizationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    program_ = SimplifiedStressTestProgram();
    glossary_ = SimplifiedStressTestGlossary();
    std::vector<Fact> edb = {
        {"Shock", {S("A"), I(6)}},          {"HasCapital", {S("A"), I(5)}},
        {"HasCapital", {S("B"), I(2)}},     {"HasCapital", {S("C"), I(10)}},
        {"Debts", {S("A"), S("B"), I(7)}},  {"Debts", {S("B"), S("C"), I(2)}},
        {"Debts", {S("B"), S("C"), I(9)}},
    };
    auto result = ChaseEngine().Run(program_, edb);
    ASSERT_TRUE(result.ok());
    chase_ = std::make_unique<ChaseResult>(std::move(result).value());
  }

  Program program_;
  DomainGlossary glossary_;
  std::unique_ptr<ChaseResult> chase_;
};

TEST_F(GroundVerbalizationTest, StepSentence) {
  Verbalizer verbalizer(&program_, &glossary_);
  FactId id = chase_->Find({"Default", {S("A")}}).value();
  auto text = verbalizer.VerbalizeStep(chase_->graph, id,
                                       chase_->graph.node(id).derivation);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(),
            "Since a shock amounting to 6M euros affects A, and A is a "
            "financial institution with capital of 5M euros, and 6M is "
            "higher than 5M, then A is in default.");
}

TEST_F(GroundVerbalizationTest, AggregationStepListsContributors) {
  Verbalizer verbalizer(&program_, &glossary_);
  FactId id = chase_->Find({"Risk", {S("C"), I(11)}}).value();
  auto text = verbalizer.VerbalizeStep(chase_->graph, id,
                                       chase_->graph.node(id).derivation);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text.value().find("with 11M given by the sum of 2M and 9M"),
            std::string::npos);
}

TEST_F(GroundVerbalizationTest, SingleContributorAggregationOmitsSum) {
  Verbalizer verbalizer(&program_, &glossary_);
  FactId id = chase_->Find({"Risk", {S("B"), I(7)}}).value();
  auto text = verbalizer.VerbalizeStep(chase_->graph, id,
                                       chase_->graph.node(id).derivation);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value().find("sum"), std::string::npos);
}

TEST_F(GroundVerbalizationTest, ExtensionalStepRejected) {
  Verbalizer verbalizer(&program_, &glossary_);
  auto text = verbalizer.VerbalizeStep(chase_->graph, 0,
                                       chase_->graph.node(0).derivation);
  EXPECT_FALSE(text.ok());
}

// A step names its rule by index into the verbalizer's program; an index
// the program does not have is an internal error, not a crash.
TEST_F(GroundVerbalizationTest, StepWithUnknownRuleIndexIsInternal) {
  Verbalizer verbalizer(&program_, &glossary_);
  FactId id = chase_->Find({"Default", {S("A")}}).value();
  Derivation derivation = chase_->graph.node(id).derivation;
  derivation.rule_index = static_cast<int>(program_.rules().size());
  auto text = verbalizer.VerbalizeStep(chase_->graph, id, derivation);
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kInternal);
}

TEST_F(GroundVerbalizationTest, ProofConcatenatesAllSteps) {
  Verbalizer verbalizer(&program_, &glossary_);
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  auto text = verbalizer.VerbalizeProof(proof);
  ASSERT_TRUE(text.ok());
  // One sentence per chase step.
  int sentences = 0;
  for (char c : text.value()) {
    if (c == '.') ++sentences;
  }
  EXPECT_EQ(sentences, proof.num_chase_steps());
}

}  // namespace
}  // namespace templex
