// The position index a ChaseGraph keeps over its nodes, and the graph's
// candidate selector as the body matcher drives it (AtomCandidates).

#include "engine/position_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/parser.h"
#include "engine/chase_graph.h"
#include "engine/matcher.h"

namespace templex {
namespace {

class PositionIndexTest : public ::testing::Test {
 protected:
  FactId Add(const Fact& fact) {
    ChaseNode node;
    node.fact = fact;
    return graph_.AddNode(std::move(node)).first;
  }

  const PositionIndex& index() const { return graph_.position_index(); }

  // Candidates for the last body atom of `rule_text` with the slots of the
  // atoms before it (first-occurrence order) set to `bound`: exactly the
  // positions those atoms bind are probed, as in the chase's enumerator.
  const std::vector<FactId>& Probe(const std::string& rule_text,
                                   const std::vector<Value>& bound) {
    const Rule rule = ParseRule(rule_text).value();
    RulePlan plan = MakeRulePlan(rule, 0);
    CompileMatchPlan(&plan, graph_.symbols());
    std::vector<Value> slots(plan.num_slots());
    std::copy(bound.begin(), bound.end(), slots.begin());
    return AtomCandidates(graph_, plan.body.back(), slots.data());
  }

  ChaseGraph graph_;
};

TEST_F(PositionIndexTest, FactsOfPredicate) {
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  Add({"Own", {Value::String("B"), Value::String("C"), Value::Double(0.7)}});
  Add({"Company", {Value::String("A")}});
  EXPECT_EQ(graph_.FactsOf("Own").size(), 2u);
  EXPECT_EQ(graph_.FactsOf("Company").size(), 1u);
  EXPECT_TRUE(graph_.FactsOf("Missing").empty());
}

TEST_F(PositionIndexTest, CandidatesUseBoundPositionIndex) {
  for (int i = 0; i < 10; ++i) {
    Add({"Own",
         {Value::String("A" + std::to_string(i)), Value::String("B"),
          Value::Double(0.6)}});
  }
  const auto& candidates =
      Probe("Key(x), Own(x, y, s) -> Out(x).", {Value::String("A3")});
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(graph_.node(candidates[0]).fact.args[0], Value::String("A3"));
}

TEST_F(PositionIndexTest, CandidatesWithConstantTerm) {
  Add({"Risk", {Value::String("C"), Value::Int(11), Value::String("long")}});
  Add({"Risk", {Value::String("C"), Value::Int(9), Value::String("short")}});
  EXPECT_EQ(Probe("Risk(c, e, \"long\") -> Out(c).", {}).size(), 1u);
}

TEST_F(PositionIndexTest, CandidatesEmptyWhenNoValueMatches) {
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  EXPECT_TRUE(Probe("Own(\"Z\", y, s) -> Out(y).", {}).empty());
}

TEST_F(PositionIndexTest, CandidatesFallBackToFullPredicateScan) {
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  Add({"Own", {Value::String("B"), Value::String("C"), Value::Double(0.7)}});
  EXPECT_EQ(Probe("Own(x, y, s) -> Out(x).", {}).size(), 2u);
}

TEST_F(PositionIndexTest, CandidatesPickMostSelectiveBoundPosition) {
  // 5 facts share y == "Hub"; only one has x == "A0". With both bound the
  // store must probe the x index (1 candidate), not the y index (5).
  for (int i = 0; i < 5; ++i) {
    Add({"Own",
         {Value::String("A" + std::to_string(i)), Value::String("Hub"),
          Value::Double(0.6)}});
  }
  EXPECT_EQ(Probe("Key(x, y), Own(x, y, s) -> Out(x).",
                  {Value::String("A0"), Value::String("Hub")})
                .size(),
            1u);
}

TEST_F(PositionIndexTest, CandidatesEmptyWhenBoundValueNeverIndexed) {
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  EXPECT_TRUE(
      Probe("Key(x), Own(x, y, s) -> Out(x).", {Value::String("NeverSeen")})
          .empty());
}

TEST_F(PositionIndexTest, CompiledPlanCandidatesFollowBoundAtEntry) {
  for (int i = 0; i < 4; ++i) {
    Add({"Own",
         {Value::String("A" + std::to_string(i)), Value::String("B"),
          Value::Double(0.6)}});
  }
  Add({"Company", {Value::String("A0")}});

  Rule rule = ParseRule("Company(x), Own(x, y, s) -> Control(x, y).").value();
  RulePlan plan = MakeRulePlan(rule, 0);
  CompileMatchPlan(&plan, graph_.symbols());

  // Slot 0 is x, first bound by the Company atom, so Own's position 0 is
  // bound_at_entry: with x == "A2" in the slot, the probe must hit the
  // position index of x.
  ASSERT_TRUE(plan.body[1].terms[0].bound_at_entry);
  std::vector<Value> slots(plan.num_slots());
  slots[0] = Value::String("A2");
  const auto& compiled = AtomCandidates(graph_, plan.body[1], slots.data());
  ASSERT_EQ(compiled.size(), 1u);
  EXPECT_EQ(graph_.node(compiled[0]).fact.args[0], Value::String("A2"));

  // The leading atom has no bound-at-entry position: full predicate list
  // of Company. Same for a one-atom body over Own.
  EXPECT_EQ(AtomCandidates(graph_, plan.body[0], slots.data()).size(), 1u);
  Rule solo = ParseRule("Own(x, y, s) -> Control(x, y).").value();
  RulePlan solo_plan = MakeRulePlan(solo, 0);
  CompileMatchPlan(&solo_plan, graph_.symbols());
  std::vector<Value> solo_slots(solo_plan.num_slots());
  EXPECT_EQ(
      AtomCandidates(graph_, solo_plan.body[0], solo_slots.data()).size(),
      4u);
}

TEST_F(PositionIndexTest, CompiledPlanUnknownPredicateHasNoCandidates) {
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  Rule rule = ParseRule("Missing(x) -> Out(x).").value();
  RulePlan plan = MakeRulePlan(rule, 0);
  const SymbolTable& frozen = graph_.symbols();
  CompileMatchPlan(&plan, frozen);
  ASSERT_EQ(plan.body[0].predicate, kInvalidSymbol);
  std::vector<Value> slots(plan.num_slots());
  EXPECT_TRUE(AtomCandidates(graph_, plan.body[0], slots.data()).empty());
}

TEST_F(PositionIndexTest, PositionIndexCountersGrowWithFacts) {
  EXPECT_EQ(index().position_keys(), 0);
  EXPECT_EQ(index().position_entries(), 0);
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  Add({"Own", {Value::String("A"), Value::String("C"), Value::Double(0.7)}});
  // 2 facts x 3 positions = 6 index entries; "A" at position 0 shares one
  // key, so 5 distinct keys (absent adversarial hash collisions).
  EXPECT_EQ(index().position_entries(), 6);
  EXPECT_EQ(index().position_keys(), 5);
}

TEST_F(PositionIndexTest, CollisionGroupsCountForcedPosKeyCollisions) {
  // Narrow PosKey to its low 4 bits: with (predicate, position, value-hash)
  // triples scattered over 16 buckets, distinct triples are forced to share
  // buckets. Each shared bucket is flagged exactly once.
  graph_.set_position_key_mask_for_testing(0xF);
  EXPECT_EQ(index().collision_groups(), 0);
  for (int i = 0; i < 32; ++i) {
    Add({"Own",
         {Value::String("A" + std::to_string(i)), Value::String("B"),
          Value::Double(i / 10.0)}});
  }
  // 32 facts x 3 positions = 96 triples into <= 16 buckets: by pigeonhole
  // at least one bucket holds two distinct triples, and a flagged bucket
  // counts once no matter how many more land in it.
  EXPECT_GT(index().collision_groups(), 0);
  EXPECT_LE(index().collision_groups(),
            index().position_keys());

  // Collided buckets stay sound: the candidate list is a superset that the
  // matcher verifies, so a bound probe still finds its fact.
  const auto& candidates =
      Probe("Key(x), Own(x, y, s) -> Out(x).", {Value::String("A7")});
  bool found = false;
  for (FactId id : candidates) {
    if (graph_.node(id).fact.args[0] == Value::String("A7")) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(PositionIndexTest, NoCollisionsWithFullWidthKeys) {
  for (int i = 0; i < 64; ++i) {
    Add({"Own",
         {Value::String("A" + std::to_string(i)), Value::String("B"),
          Value::Double(i / 10.0)}});
  }
  EXPECT_EQ(index().collision_groups(), 0);
}

// AnyFactAgrees, the test negation-as-failure and existential reuse share:
// the positions bound at entry must agree, the others are free, and a
// bucket merged with another predicate's facts never answers for it.
TEST_F(PositionIndexTest, AnyFactAgreesComparesOnlyPositionsBoundAtEntry) {
  graph_.set_position_key_mask_for_testing(0x3);
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  Add({"Key", {Value::String("Z")}});
  Add({"Key", {Value::String("A")}});
  // A RulePlan points at its Rule, so the rules outlive the plans.
  const Rule negated_rule =
      ParseRule("Key(x), not Own(x, \"B\", 0.6) -> Out(x).").value();
  const Rule existential_rule =
      ParseRule("Key(x) -> Own(x, \"B\", s).").value();
  RulePlan negated = MakeRulePlan(negated_rule, 0);
  RulePlan existential = MakeRulePlan(existential_rule, 1);
  CompileMatchPlan(&negated, graph_.symbols());
  CompileMatchPlan(&existential, graph_.symbols());
  ASSERT_EQ(negated.negative_body.size(), 1u);
  ASSERT_FALSE(existential.head.terms[2].bound_at_entry);
  for (const char* key : {"A", "Z"}) {
    std::vector<Value> slots(static_cast<size_t>(std::max(
        negated.num_binding_slots(), existential.num_binding_slots())));
    slots[0] = Value::String(key);
    const bool agrees = std::string(key) == "A";
    EXPECT_EQ(AnyFactAgrees(graph_, negated.negative_body[0], slots.data()),
              agrees)
        << key;
    EXPECT_EQ(AnyFactAgrees(graph_, existential.head, slots.data()), agrees)
        << key;
  }
}

}  // namespace
}  // namespace templex
