#include "engine/aggregate_state.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

namespace templex {
namespace {

std::vector<Value> Key(std::initializer_list<Value> values) {
  return std::vector<Value>(values);
}

std::vector<FactId> Parents(std::initializer_list<FactId> ids) {
  return std::vector<FactId>(ids);
}

// One Contribute call, with the group's provenance materialized the way the
// chase materializes it for a kept head.
struct Outcome {
  std::optional<Value> aggregate;
  std::vector<AggregateContribution> contributions;
  std::vector<FactId> all_parents;
};

Outcome Contribute(AggregateState* state, int rule, AggregateFunction fn,
                   bool explicit_keys, const std::vector<Value>& group,
                   const std::vector<Value>& contributor, const Value& input,
                   const std::vector<FactId>& parents) {
  Outcome outcome;
  AggregateState::GroupRef ref;
  outcome.aggregate = state->Contribute(rule, fn, explicit_keys, group,
                                        contributor, input, parents, &ref);
  state->Contributions(ref, &outcome.contributions);
  state->UnionParents(ref, &outcome.all_parents);
  return outcome;
}

// Every recorded entry in ForEach order, rendered for comparison.
std::vector<std::string> Entries(const AggregateState& state) {
  std::vector<std::string> out;
  auto render = [](const std::vector<Value>& key) {
    std::string text;
    for (const Value& v : key) text += v.ToString() + ",";
    return text;
  };
  state.ForEach([&](int rule, const std::vector<Value>& group,
                    const std::vector<Value>& contributor, const Value& value,
                    const std::vector<FactId>& parents) {
    std::string line = std::to_string(rule) + "|" + render(group) + "|" +
                       render(contributor) + "|" + value.ToString() + "|";
    for (FactId p : parents) line += std::to_string(p) + ",";
    out.push_back(line);
  });
  return out;
}

TEST(AggregateStateTest, FirstContributionEmits) {
  AggregateState state(1);
  Outcome outcome = Contribute(&state, 0, AggregateFunction::kSum, false,
                               Key({Value::String("C")}), Key({Value::Int(1)}),
                               Value::Int(7), Parents({0, 1}));
  ASSERT_TRUE(outcome.aggregate.has_value());
  EXPECT_EQ(*outcome.aggregate, Value::Double(7));
  ASSERT_EQ(outcome.contributions.size(), 1u);
  EXPECT_EQ(outcome.all_parents.size(), 2u);
}

TEST(AggregateStateTest, ImplicitKeyRepeatIsNoOp) {
  AggregateState state(1);
  auto key = Key({Value::String("C")});
  auto ckey = Key({Value::Int(1)});
  ASSERT_TRUE(state
                  .Contribute(0, AggregateFunction::kSum, false, key, ckey,
                              Value::Int(7), Parents({0}))
                  .has_value());
  EXPECT_FALSE(state
                   .Contribute(0, AggregateFunction::kSum, false, key, ckey,
                               Value::Int(7), Parents({0}))
                   .has_value());
}

TEST(AggregateStateTest, SumAccumulatesAcrossContributors) {
  AggregateState state(1);
  auto group = Key({Value::String("C")});
  Contribute(&state, 0, AggregateFunction::kSum, false, group,
             Key({Value::Int(1)}), Value::Int(2), Parents({0}));
  Outcome outcome = Contribute(&state, 0, AggregateFunction::kSum, false,
                               group, Key({Value::Int(2)}), Value::Int(9),
                               Parents({1}));
  ASSERT_TRUE(outcome.aggregate.has_value());
  EXPECT_EQ(*outcome.aggregate, Value::Double(11));
  EXPECT_EQ(outcome.contributions.size(), 2u);
}

TEST(AggregateStateTest, GroupsAreIndependent) {
  AggregateState state(1);
  Outcome b = Contribute(&state, 0, AggregateFunction::kSum, false,
                         Key({Value::String("B")}), Key({Value::Int(1)}),
                         Value::Int(5), Parents({0}));
  Outcome c = Contribute(&state, 0, AggregateFunction::kSum, false,
                         Key({Value::String("C")}), Key({Value::Int(1)}),
                         Value::Int(3), Parents({1}));
  ASSERT_TRUE(c.aggregate.has_value());
  EXPECT_EQ(*c.aggregate, Value::Double(3));
  EXPECT_EQ(b.contributions.size(), 1u);
  EXPECT_EQ(c.contributions.size(), 1u);
}

// Group ids are dense in creation order, and a group found first and fed
// later folds as one found by Contribute.
TEST(AggregateStateTest, GroupIdsAreDenseInCreationOrder) {
  AggregateState state(2);
  const auto b = state.FindOrAddGroup(0, Key({Value::String("B")}));
  const auto c = state.FindOrAddGroup(1, Key({Value::String("B")}));
  EXPECT_EQ(b.id(), 0);
  EXPECT_EQ(c.id(), 1);
  EXPECT_EQ(state.FindOrAddGroup(0, Key({Value::String("B")})).id(), 0);
  auto first = state.Contribute(b, AggregateFunction::kSum, false,
                                Key({Value::Int(1)}), Value::Int(5), {});
  AggregateState::GroupRef again;
  auto second = state.Contribute(0, AggregateFunction::kSum, false,
                                 Key({Value::String("B")}),
                                 Key({Value::Int(2)}), Value::Int(3), {},
                                 &again);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, Value::Double(5));
  EXPECT_EQ(*second, Value::Double(8));
  EXPECT_EQ(again.id(), 0);
}

TEST(AggregateStateTest, RulesAreIndependent) {
  AggregateState state(2);
  auto group = Key({Value::String("C")});
  state.Contribute(0, AggregateFunction::kSum, false, group,
                   Key({Value::Int(1)}), Value::Int(5), Parents({0}));
  auto aggregate =
      state.Contribute(1, AggregateFunction::kSum, false, group,
                       Key({Value::Int(1)}), Value::Int(3), Parents({1}));
  ASSERT_TRUE(aggregate.has_value());
  EXPECT_EQ(*aggregate, Value::Double(3));
}

TEST(AggregateStateTest, ExplicitKeyTakesMonotoneMaxForSum) {
  // The σ7 pattern: running per-channel totals; each channel key keeps the
  // latest (max) value.
  AggregateState state(1);
  auto group = Key({Value::String("F")});
  state.Contribute(0, AggregateFunction::kSum, true, group,
                   Key({Value::String("long")}), Value::Int(2), Parents({0}));
  auto updated =
      state.Contribute(0, AggregateFunction::kSum, true, group,
                       Key({Value::String("long")}), Value::Int(5),
                       Parents({1}));
  ASSERT_TRUE(updated.has_value());
  EXPECT_EQ(*updated, Value::Double(5));  // replaced, not added
  auto second_channel =
      state.Contribute(0, AggregateFunction::kSum, true, group,
                       Key({Value::String("short")}), Value::Int(9),
                       Parents({2}));
  ASSERT_TRUE(second_channel.has_value());
  EXPECT_EQ(*second_channel, Value::Double(14));
}

TEST(AggregateStateTest, ExplicitKeySmallerValueIsIgnoredForSum) {
  AggregateState state(1);
  auto group = Key({Value::String("F")});
  state.Contribute(0, AggregateFunction::kSum, true, group,
                   Key({Value::String("long")}), Value::Int(5), Parents({0}));
  EXPECT_FALSE(state
                   .Contribute(0, AggregateFunction::kSum, true, group,
                               Key({Value::String("long")}), Value::Int(2),
                               Parents({1}))
                   .has_value());
}

TEST(AggregateStateTest, MinKeepsSmallest) {
  AggregateState state(1);
  auto group = Key({Value::String("X")});
  state.Contribute(0, AggregateFunction::kMin, true, group,
                   Key({Value::Int(1)}), Value::Int(5), Parents({0}));
  auto aggregate =
      state.Contribute(0, AggregateFunction::kMin, true, group,
                       Key({Value::Int(1)}), Value::Int(2), Parents({1}));
  ASSERT_TRUE(aggregate.has_value());
  EXPECT_EQ(*aggregate, Value::Double(2));
}

TEST(AggregateStateTest, MaxOverContributors) {
  AggregateState state(1);
  auto group = Key({Value::String("X")});
  state.Contribute(0, AggregateFunction::kMax, false, group,
                   Key({Value::Int(1)}), Value::Int(5), Parents({0}));
  auto aggregate =
      state.Contribute(0, AggregateFunction::kMax, false, group,
                       Key({Value::Int(2)}), Value::Int(3), Parents({1}));
  ASSERT_TRUE(aggregate.has_value());
  EXPECT_EQ(*aggregate, Value::Double(5));
}

TEST(AggregateStateTest, CountCountsContributors) {
  AggregateState state(1);
  auto group = Key({Value::String("X")});
  state.Contribute(0, AggregateFunction::kCount, false, group,
                   Key({Value::Int(1)}), Value::Int(100), Parents({0}));
  auto aggregate =
      state.Contribute(0, AggregateFunction::kCount, false, group,
                       Key({Value::Int(2)}), Value::Int(100), Parents({1}));
  ASSERT_TRUE(aggregate.has_value());
  EXPECT_EQ(*aggregate, Value::Int(2));
}

TEST(AggregateStateTest, ProdMultiplies) {
  AggregateState state(1);
  auto group = Key({Value::String("X")});
  state.Contribute(0, AggregateFunction::kProd, false, group,
                   Key({Value::Int(1)}), Value::Double(0.5), Parents({0}));
  auto aggregate =
      state.Contribute(0, AggregateFunction::kProd, false, group,
                       Key({Value::Int(2)}), Value::Double(0.4), Parents({1}));
  ASSERT_TRUE(aggregate.has_value());
  EXPECT_EQ(*aggregate, Value::Double(0.2));
}

TEST(AggregateStateTest, ParentsUnionIsDeduplicated) {
  AggregateState state(1);
  auto group = Key({Value::String("C")});
  Contribute(&state, 0, AggregateFunction::kSum, false, group,
             Key({Value::Int(1)}), Value::Int(2), Parents({0, 7}));
  Outcome outcome = Contribute(&state, 0, AggregateFunction::kSum, false,
                               group, Key({Value::Int(2)}), Value::Int(9),
                               Parents({1, 7}));
  ASSERT_TRUE(outcome.aggregate.has_value());
  EXPECT_EQ(outcome.all_parents, Parents({0, 7, 1}));
}

TEST(AggregateStateTest, ContributionsOrderedByContributorKey) {
  AggregateState state(1);
  auto group = Key({Value::String("C")});
  Contribute(&state, 0, AggregateFunction::kSum, false, group,
             Key({Value::Int(9)}), Value::Int(9), Parents({0}));
  Outcome outcome = Contribute(&state, 0, AggregateFunction::kSum, false,
                               group, Key({Value::Int(2)}), Value::Int(2),
                               Parents({1}));
  ASSERT_TRUE(outcome.aggregate.has_value());
  // Sorted by contributor key: 2 before 9.
  EXPECT_EQ(outcome.contributions[0].input, Value::Int(2));
  EXPECT_EQ(outcome.contributions[1].input, Value::Int(9));
  // The union follows the same order.
  EXPECT_EQ(outcome.all_parents, Parents({1, 0}));
}

TEST(AggregateStateTest, SumFoldsInContributorKeyOrder) {
  // 1e16 + 1 + 1 != 1 + 1 + 1e16 in doubles: the fold order is the
  // contributor-key order, whatever the arrival order.
  AggregateState state(1);
  auto group = Key({Value::String("C")});
  state.Contribute(0, AggregateFunction::kSum, false, group,
                   Key({Value::Int(3)}), Value::Double(1.0), Parents({0}));
  state.Contribute(0, AggregateFunction::kSum, false, group,
                   Key({Value::Int(2)}), Value::Double(1.0), Parents({1}));
  auto aggregate =
      state.Contribute(0, AggregateFunction::kSum, false, group,
                       Key({Value::Int(1)}), Value::Double(1e16),
                       Parents({2}));
  ASSERT_TRUE(aggregate.has_value());
  double expected = 0.0;
  expected += 1e16;
  expected += 1.0;
  expected += 1.0;
  EXPECT_EQ(*aggregate, Value::Double(expected));
}

TEST(AggregateStateTest, NumericallyEqualKeysShareAGroup) {
  // Value equality is numeric across kinds: Int(2) and Double(2.0) name
  // one group and one contributor.
  AggregateState state(1);
  state.Contribute(0, AggregateFunction::kSum, false, Key({Value::Int(2)}),
                   Key({Value::Int(1)}), Value::Int(5), Parents({0}));
  Outcome outcome = Contribute(&state, 0, AggregateFunction::kSum, false,
                               Key({Value::Double(2.0)}), Key({Value::Int(7)}),
                               Value::Int(3), Parents({1}));
  ASSERT_TRUE(outcome.aggregate.has_value());
  EXPECT_EQ(*outcome.aggregate, Value::Double(8));
  EXPECT_EQ(outcome.contributions.size(), 2u);
  EXPECT_FALSE(state
                   .Contribute(0, AggregateFunction::kSum, false,
                               Key({Value::Double(2.0)}),
                               Key({Value::Double(1.0)}), Value::Int(5),
                               Parents({0}))
                   .has_value());
  EXPECT_EQ(Entries(state).size(), 2u);
}

TEST(AggregateStateTest, ForEachOrderIsIndependentOfInsertionOrder) {
  using Entry = std::tuple<int, std::vector<Value>, std::vector<Value>, int>;
  const std::vector<Entry> entries = {
      {1, Key({Value::String("B")}), Key({Value::Int(2)}), 1},
      {0, Key({Value::String("C")}), Key({Value::Int(5)}), 2},
      {0, Key({Value::String("A")}), Key({Value::Int(9)}), 3},
      {1, Key({Value::String("A")}), Key({Value::Int(1)}), 4},
      {0, Key({Value::String("C")}), Key({Value::Int(1)}), 5},
      {0, Key({Value::Int(4)}), Key({Value::String("z")}), 6},
  };
  AggregateState forward(2);
  for (const auto& [rule, group, contributor, v] : entries) {
    forward.Contribute(rule, AggregateFunction::kSum, false, group,
                       contributor, Value::Int(v), Parents({v}));
  }
  AggregateState backward(2);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const auto& [rule, group, contributor, v] = *it;
    backward.Contribute(rule, AggregateFunction::kSum, false, group,
                        contributor, Value::Int(v), Parents({v}));
  }
  const std::vector<std::string> want = {
      // Rule 0: Int before String (kind order), then "A" < "C"; within a
      // group, contributor keys ascend.
      "0|4,|\"z\",|6|6,",
      "0|\"A\",|9,|3|3,",
      "0|\"C\",|1,|5|5,",
      "0|\"C\",|5,|2|2,",
      "1|\"A\",|1,|4|4,",
      "1|\"B\",|2,|1|1,",
  };
  EXPECT_EQ(Entries(forward), want);
  EXPECT_EQ(Entries(backward), want);
  EXPECT_EQ(forward.approx_bytes(), backward.approx_bytes());
}

TEST(AggregateStateTest, RestoreThenForEachRoundTrips) {
  AggregateState original(2);
  original.Contribute(0, AggregateFunction::kSum, true,
                      Key({Value::String("F")}), Key({Value::String("long")}),
                      Value::Int(2), Parents({0}));
  original.Contribute(0, AggregateFunction::kSum, true,
                      Key({Value::String("F")}), Key({Value::String("long")}),
                      Value::Int(5), Parents({1, 2}));
  original.Contribute(1, AggregateFunction::kSum, false,
                      Key({Value::String("G")}), Key({Value::Int(3)}),
                      Value::Double(0.5), Parents({4}));
  original.Contribute(0, AggregateFunction::kSum, true,
                      Key({Value::String("E")}), Key({Value::String("short")}),
                      Value::Int(7), Parents({3}));
  AggregateState restored(2);
  original.ForEach([&restored](int rule, const std::vector<Value>& group,
                               const std::vector<Value>& contributor,
                               const Value& value,
                               const std::vector<FactId>& parents) {
    restored.Restore(rule, group, contributor, value, parents);
  });
  EXPECT_EQ(Entries(restored), Entries(original));
  EXPECT_EQ(restored.approx_bytes(), original.approx_bytes());
  // The restored state continues exactly like the original.
  for (AggregateState* state : {&original, &restored}) {
    auto aggregate = state->Contribute(
        0, AggregateFunction::kSum, true, Key({Value::String("F")}),
        Key({Value::String("short")}), Value::Int(1), Parents({9}));
    ASSERT_TRUE(aggregate.has_value());
    EXPECT_EQ(*aggregate, Value::Double(6));
  }
  EXPECT_EQ(Entries(restored), Entries(original));
}

}  // namespace
}  // namespace templex
