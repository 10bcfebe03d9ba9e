#include "engine/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/parser.h"

namespace templex {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  FactId Add(const Fact& fact) {
    ChaseNode node;
    node.fact = fact;
    return graph_.AddNode(std::move(node)).first;
  }

  // Compiles a throwaway plan against the graph's symbol table
  // (lookup-only: the facts below the window limit are frozen).
  RulePlan Plan(const Rule& rule) const {
    RulePlan plan = MakeRulePlan(rule, 0);
    CompileMatchPlan(&plan, graph_.symbols());
    return plan;
  }

  // Semi-naive window: delta_atom < 0 evaluates every atom over
  // [0, limit); otherwise the atom at `delta_atom` matches [delta_begin,
  // limit), atoms before it ids < delta_begin, atoms after it any id <
  // limit.
  static MatchWindow Window(int delta_atom, FactId delta_begin,
                            FactId limit) {
    MatchWindow window;
    window.limit = limit;
    window.pivot_atom = delta_atom;
    window.pivot_begin = delta_begin;
    window.pivot_end = limit;
    window.pre_pivot_cap = delta_begin;
    return window;
  }

  // A BodyMatch outlived: its body slots copied, with their names.
  struct Match {
    std::vector<std::string> names;
    std::vector<Value> slots;
    std::vector<FactId> facts;

    const Value& Get(const std::string& name) const {
      const auto it = std::find(names.begin(), names.end(), name);
      EXPECT_NE(it, names.end()) << name;
      return slots.at(static_cast<size_t>(it - names.begin()));
    }
  };

  std::vector<Match> Enumerate(const Rule& rule, int delta_atom,
                               FactId delta_begin, FactId limit) {
    std::vector<Match> matches;
    const RulePlan plan = Plan(rule);
    Status status = EnumerateMatches(
        plan, graph_, Window(delta_atom, delta_begin, limit),
        [&matches, &plan](const BodyMatch& m) {
          Match copy;
          copy.names = plan.slot_names;
          copy.slots.assign(m.slots, m.slots + plan.num_slots());
          copy.facts = m.facts;
          matches.push_back(std::move(copy));
          return Status::OK();
        });
    EXPECT_TRUE(status.ok()) << status.ToString();
    return matches;
  }

  ChaseGraph graph_;
};

TEST_F(MatcherTest, SingleAtomEnumeratesAllFacts) {
  Add({"P", {Value::Int(1)}});
  Add({"Q", {Value::Int(3)}});                 // other predicate
  Add({"P", {Value::Int(1), Value::Int(2)}});  // other arity
  Add({"P", {Value::Int(2)}});
  Rule rule = ParseRule("P(x) -> Q(x).").value();
  auto matches = Enumerate(rule, -1, 0, graph_.size());
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].Get("x"), Value::Int(1));
  EXPECT_EQ(matches[1].Get("x"), Value::Int(2));
}

TEST_F(MatcherTest, JoinOverSharedVariable) {
  Add({"Own", {Value::String("A"), Value::String("B"), Value::Double(0.6)}});
  Add({"Own", {Value::String("B"), Value::String("C"), Value::Double(0.7)}});
  Add({"Own", {Value::String("X"), Value::String("Y"), Value::Double(0.9)}});
  Rule rule =
      ParseRule("Own(a, b, s1), Own(b, c, s2) -> Indirect(a, c).").value();
  auto matches = Enumerate(rule, -1, 0, graph_.size());
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].Get("a"), Value::String("A"));
  EXPECT_EQ(matches[0].Get("c"), Value::String("C"));
  ASSERT_EQ(matches[0].facts.size(), 2u);
}

TEST_F(MatcherTest, CrossProductWhenNoSharedVariables) {
  Add({"P", {Value::Int(1)}});
  Add({"P", {Value::Int(2)}});
  Add({"Q", {Value::Int(3)}});
  Rule rule = ParseRule("P(x), Q(y) -> R(x, y).").value();
  auto matches = Enumerate(rule, -1, 0, graph_.size());
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(MatcherTest, LimitExcludesNewerFacts) {
  Add({"P", {Value::Int(1)}});
  FactId limit = graph_.size();
  Add({"P", {Value::Int(2)}});
  Rule rule = ParseRule("P(x) -> Q(x).").value();
  auto matches = Enumerate(rule, -1, 0, limit);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].Get("x"), Value::Int(1));
}

TEST_F(MatcherTest, SemiNaiveDeltaCoversExactlyNewCombinations) {
  // Old: P(1), Q(1). New: P(2), Q(2). Rule P(x), Q(y) -> R(x, y).
  Add({"P", {Value::Int(1)}});
  Add({"Q", {Value::Int(1)}});
  FactId delta_begin = graph_.size();
  Add({"P", {Value::Int(2)}});
  Add({"Q", {Value::Int(2)}});
  FactId limit = graph_.size();
  Rule rule = ParseRule("P(x), Q(y) -> R(x, y).").value();
  // Union of all delta positions must cover exactly the 3 new pairs
  // (2,1), (1,2), (2,2) without duplicates.
  std::vector<Match> all;
  for (int pos = 0; pos < 2; ++pos) {
    auto matches = Enumerate(rule, pos, delta_begin, limit);
    all.insert(all.end(), matches.begin(), matches.end());
  }
  ASSERT_EQ(all.size(), 3u);
  int old_old = 0;
  for (const Match& m : all) {
    if (m.Get("x") == Value::Int(1) && m.Get("y") == Value::Int(1)) {
      ++old_old;
    }
  }
  EXPECT_EQ(old_old, 0);  // the old-old pair is never re-derived
}

TEST_F(MatcherTest, CallbackErrorStopsEnumeration) {
  Add({"P", {Value::Int(1)}});
  Add({"P", {Value::Int(2)}});
  Rule rule = ParseRule("P(x) -> Q(x).").value();
  int calls = 0;
  Status status = EnumerateMatches(
      Plan(rule), graph_, Window(-1, 0, graph_.size()),
      [&calls](const BodyMatch&) {
        ++calls;
        return Status::Internal("stop");
      });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(calls, 1);
}

TEST_F(MatcherTest, RepeatedVariableInAtom) {
  Add({"Edge", {Value::Int(1), Value::Int(1)}});
  Add({"Edge", {Value::Int(1), Value::Int(2)}});
  Rule rule = ParseRule("Edge(x, x) -> SelfLoop(x).").value();
  auto matches = Enumerate(rule, -1, 0, graph_.size());
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].Get("x"), Value::Int(1));
  EXPECT_EQ(matches[0].facts, std::vector<FactId>{0});
  // A constant position rejects the fact whose argument differs.
  Rule constant = ParseRule("Edge(x, 2) -> Out(x).").value();
  matches = Enumerate(constant, -1, 0, graph_.size());
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].facts, std::vector<FactId>{1});
}

TEST_F(MatcherTest, DeterministicOrder) {
  Add({"P", {Value::Int(3)}});
  Add({"P", {Value::Int(1)}});
  Add({"P", {Value::Int(2)}});
  Rule rule = ParseRule("P(x) -> Q(x).").value();
  auto matches = Enumerate(rule, -1, 0, graph_.size());
  ASSERT_EQ(matches.size(), 3u);
  // Fact-id (insertion) order, not value order.
  EXPECT_EQ(matches[0].Get("x"), Value::Int(3));
  EXPECT_EQ(matches[1].Get("x"), Value::Int(1));
  EXPECT_EQ(matches[2].Get("x"), Value::Int(2));
}

}  // namespace
}  // namespace templex
