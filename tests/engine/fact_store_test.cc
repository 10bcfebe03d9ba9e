#include "engine/fact_store.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/parser.h"

namespace templex {
namespace {

class FactStoreTest : public ::testing::Test {
 protected:
  FactStoreTest() : store_(&graph_) {}

  FactId Add(const Fact& fact) {
    ChaseNode node;
    node.fact = fact;
    auto [id, inserted] = graph_.AddNode(std::move(node));
    if (inserted) store_.OnNewFact(id);
    return id;
  }

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
    return store_.CandidatesFor(plan.body.back(), slots.data());
  }

  ChaseGraph graph_;
  FactStore store_;
};

TEST_F(FactStoreTest, FactsOfPredicate) {
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  Add({"Own", {Value::String("B"), Value::String("C"), Value::Double(0.7)}});
  Add({"Company", {Value::String("A")}});
  EXPECT_EQ(store_.FactsOf("Own").size(), 2u);
  EXPECT_EQ(store_.FactsOf("Company").size(), 1u);
  EXPECT_TRUE(store_.FactsOf("Missing").empty());
}

TEST_F(FactStoreTest, CandidatesUseBoundPositionIndex) {
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

TEST_F(FactStoreTest, CandidatesWithConstantTerm) {
  Add({"Risk", {Value::String("C"), Value::Int(11), Value::String("long")}});
  Add({"Risk", {Value::String("C"), Value::Int(9), Value::String("short")}});
  EXPECT_EQ(Probe("Risk(c, e, \"long\") -> Out(c).", {}).size(), 1u);
}

TEST_F(FactStoreTest, CandidatesEmptyWhenNoValueMatches) {
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  EXPECT_TRUE(Probe("Own(\"Z\", y, s) -> Out(y).", {}).empty());
}

TEST_F(FactStoreTest, CandidatesFallBackToFullPredicateScan) {
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  Add({"Own", {Value::String("B"), Value::String("C"), Value::Double(0.7)}});
  EXPECT_EQ(Probe("Own(x, y, s) -> Out(x).", {}).size(), 2u);
}

TEST_F(FactStoreTest, CandidatesPickMostSelectiveBoundPosition) {
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

TEST_F(FactStoreTest, CandidatesEmptyWhenBoundValueNeverIndexed) {
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  EXPECT_TRUE(
      Probe("Key(x), Own(x, y, s) -> Out(x).", {Value::String("NeverSeen")})
          .empty());
}

TEST_F(FactStoreTest, CompiledPlanCandidatesFollowBoundAtEntry) {
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
  const auto& compiled = store_.CandidatesFor(plan.body[1], slots.data());
  ASSERT_EQ(compiled.size(), 1u);
  EXPECT_EQ(graph_.node(compiled[0]).fact.args[0], Value::String("A2"));

  // The leading atom has no bound-at-entry position: full predicate list
  // of Company. Same for a one-atom body over Own.
  EXPECT_EQ(store_.CandidatesFor(plan.body[0], slots.data()).size(), 1u);
  Rule solo = ParseRule("Own(x, y, s) -> Control(x, y).").value();
  RulePlan solo_plan = MakeRulePlan(solo, 0);
  CompileMatchPlan(&solo_plan, graph_.symbols());
  std::vector<Value> solo_slots(solo_plan.num_slots());
  EXPECT_EQ(store_.CandidatesFor(solo_plan.body[0], solo_slots.data()).size(),
            4u);
}

TEST_F(FactStoreTest, CompiledPlanUnknownPredicateHasNoCandidates) {
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  Rule rule = ParseRule("Missing(x) -> Out(x).").value();
  RulePlan plan = MakeRulePlan(rule, 0);
  const SymbolTable& frozen = graph_.symbols();
  CompileMatchPlan(&plan, frozen);
  ASSERT_EQ(plan.body[0].predicate, kInvalidSymbol);
  std::vector<Value> slots(plan.num_slots());
  EXPECT_TRUE(store_.CandidatesFor(plan.body[0], slots.data()).empty());
}

TEST_F(FactStoreTest, PositionIndexCountersGrowWithFacts) {
  EXPECT_EQ(store_.position_index().position_keys(), 0);
  EXPECT_EQ(store_.position_index().position_entries(), 0);
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  Add({"Own", {Value::String("A"), Value::String("C"), Value::Double(0.7)}});
  // 2 facts x 3 positions = 6 index entries; "A" at position 0 shares one
  // key, so 5 distinct keys (absent adversarial hash collisions).
  EXPECT_EQ(store_.position_index().position_entries(), 6);
  EXPECT_EQ(store_.position_index().position_keys(), 5);
}

TEST_F(FactStoreTest, CollisionGroupsCountForcedPosKeyCollisions) {
  // Narrow PosKey to its low 4 bits: with (predicate, position, value-hash)
  // triples scattered over 16 buckets, distinct triples are forced to share
  // buckets. Each shared bucket is flagged exactly once.
  store_.set_position_key_mask_for_testing(0xF);
  EXPECT_EQ(store_.position_index().collision_groups(), 0);
  for (int i = 0; i < 32; ++i) {
    Add({"Own",
         {Value::String("A" + std::to_string(i)), Value::String("B"),
          Value::Double(i / 10.0)}});
  }
  // 32 facts x 3 positions = 96 triples into <= 16 buckets: by pigeonhole
  // at least one bucket holds two distinct triples, and a flagged bucket
  // counts once no matter how many more land in it.
  EXPECT_GT(store_.position_index().collision_groups(), 0);
  EXPECT_LE(store_.position_index().collision_groups(),
            store_.position_index().position_keys());

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

TEST_F(FactStoreTest, NoCollisionsWithFullWidthKeys) {
  for (int i = 0; i < 64; ++i) {
    Add({"Own",
         {Value::String("A" + std::to_string(i)), Value::String("B"),
          Value::Double(i / 10.0)}});
  }
  EXPECT_EQ(store_.position_index().collision_groups(), 0);
}

}  // namespace
}  // namespace templex
