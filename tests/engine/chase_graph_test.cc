#include "engine/chase_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/rng.h"

namespace templex {
namespace {

ChaseNode Node(const Fact& fact, std::vector<FactId> parents = {},
               int rule_index = -1) {
  ChaseNode node;
  node.fact = fact;
  node.derivation.parents = std::move(parents);
  node.derivation.rule_index = rule_index;
  return node;
}

// A rule table of two rules: "alpha" binds x and s, "beta" binds nothing.
std::shared_ptr<const RuleTable> AlphaBetaRules() {
  return std::make_shared<const RuleTable>(
      RuleTable{{"alpha", {"x", "s"}}, {"beta", {}}});
}

TEST(ChaseGraphTest, AddAndFind) {
  ChaseGraph graph;
  auto [id, inserted] = graph.AddNode(Node({"P", {Value::Int(1)}}));
  EXPECT_TRUE(inserted);
  EXPECT_EQ(id, 0);
  EXPECT_EQ(graph.size(), 1);
  ASSERT_TRUE(graph.Find({"P", {Value::Int(1)}}).has_value());
  EXPECT_FALSE(graph.Find({"P", {Value::Int(2)}}).has_value());
}

TEST(ChaseGraphTest, DuplicateFactNotInserted) {
  ChaseGraph graph;
  graph.AddNode(Node({"P", {Value::Int(1)}}));
  auto [id, inserted] = graph.AddNode(Node({"P", {Value::Int(1)}}));
  EXPECT_FALSE(inserted);
  EXPECT_EQ(id, 0);
  EXPECT_EQ(graph.size(), 1);
}

TEST(ChaseGraphTest, ExtensionalFlag) {
  ChaseGraph graph;
  graph.AddNode(Node({"P", {Value::Int(1)}}));
  graph.AddNode(Node({"Q", {Value::Int(1)}}, {0}, 0));
  EXPECT_TRUE(graph.node(0).is_extensional());
  EXPECT_FALSE(graph.node(1).is_extensional());
}

TEST(ChaseGraphTest, AncestorClosureIsSortedAndComplete) {
  ChaseGraph graph;
  graph.AddNode(Node({"A", {}}));                 // 0
  graph.AddNode(Node({"B", {}}));                 // 1
  graph.AddNode(Node({"C", {}}, {0, 1}, 0));   // 2
  graph.AddNode(Node({"D", {}}, {2}, 1));      // 3
  graph.AddNode(Node({"E", {}}));                 // 4 (unrelated)
  auto closure = graph.AncestorClosure(3);
  EXPECT_EQ(closure, (std::vector<FactId>{0, 1, 2, 3}));
}

TEST(ChaseGraphTest, AncestorClosureHandlesDiamonds) {
  ChaseGraph graph;
  graph.AddNode(Node({"A", {}}));                    // 0
  graph.AddNode(Node({"B", {}}, {0}, 0));         // 1
  graph.AddNode(Node({"C", {}}, {0}, 1));         // 2
  graph.AddNode(Node({"D", {}}, {1, 2}, 2));      // 3
  auto closure = graph.AncestorClosure(3);
  EXPECT_EQ(closure.size(), 4u);  // 0 appears once
}

TEST(ChaseGraphTest, FactsOfPredicate) {
  ChaseGraph graph;
  graph.AddNode(Node({"P", {Value::Int(1)}}));
  graph.AddNode(Node({"Q", {Value::Int(1)}}));
  graph.AddNode(Node({"P", {Value::Int(2)}}));
  EXPECT_EQ(graph.FactsOf("P").size(), 2u);
  EXPECT_EQ(graph.FactsOf("Q").size(), 1u);
}

TEST(ChaseGraphTest, ToDotContainsNodesAndLabeledEdges) {
  ChaseGraph graph;
  graph.set_rules(AlphaBetaRules());
  graph.AddNode(Node({"P", {Value::Int(1)}}));
  graph.AddNode(Node({"Q", {Value::Int(1)}}, {0}, 0));
  std::string dot = graph.ToDot();
  EXPECT_NE(dot.find("P(1)"), std::string::npos);
  EXPECT_NE(dot.find("label=\"alpha\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(ChaseGraphTest, ToDotRestrictedToGoal) {
  ChaseGraph graph;
  graph.AddNode(Node({"P", {Value::Int(1)}}));
  graph.AddNode(Node({"Q", {Value::Int(1)}}, {0}, 0));
  graph.AddNode(Node({"Unrelated", {}}));
  std::string dot = graph.ToDot(1);
  EXPECT_EQ(dot.find("Unrelated"), std::string::npos);
}

// Labels and variable names come from the graph's rule table, shared by
// its copies; an index the table does not hold reads as unnamed.
TEST(ChaseGraphTest, RuleTableNamesDerivations) {
  ChaseGraph graph;
  EXPECT_EQ(graph.RuleLabel(0), "");
  graph.set_rules(AlphaBetaRules());
  const ChaseGraph copy = graph;
  EXPECT_EQ(copy.RuleLabel(0), "alpha");
  EXPECT_EQ(copy.RuleLabel(1), "beta");
  EXPECT_EQ(copy.RuleLabel(-1), "");
  EXPECT_EQ(copy.RuleLabel(2), "");
  ASSERT_NE(copy.rule(0), nullptr);
  EXPECT_EQ(copy.rule(0), graph.rule(0));  // one table, not a copy
  EXPECT_EQ(copy.rule(2), nullptr);
  const std::vector<Value> values = {Value::String("A"), Value::Double(0.6)};
  EXPECT_EQ(copy.BindingToString(0, values), "{x=\"A\", s=0.6}");
  EXPECT_EQ(copy.BindingToString(-1, {}), "{}");
}

// DependsOn's level test and level-pruned walk must answer exactly like
// membership in AncestorClosure, on a random chase-shaped DAG (parents
// precede their node) with shared ancestors and independent late facts.
TEST(ChaseGraphTest, DependsOnAgreesWithAncestorClosure) {
  ChaseGraph graph;
  Rng rng(5);
  constexpr int kNodes = 240;
  for (int id = 0; id < kNodes; ++id) {
    std::vector<FactId> parents;
    if (id >= 8) {
      const int count = static_cast<int>(rng.NextInt(0, 4));
      for (int k = 0; k < count; ++k) {
        parents.push_back(static_cast<FactId>(rng.NextInt(0, id - 1)));
      }
    }
    graph.AddNode(Node({"P", {Value::Int(id)}}, parents, 0));
  }
  for (FactId node = 0; node < kNodes; ++node) {
    const std::vector<FactId> closure = graph.AncestorClosure(node);
    for (FactId target = 0; target < kNodes; ++target) {
      const bool want =
          std::binary_search(closure.begin(), closure.end(), target);
      ASSERT_EQ(graph.DependsOn(node, target), want)
          << "node " << node << " target " << target;
    }
  }
}

// The content-based footprint behind the chase.memory.* gauges and every
// budget trip point, pinned to absolute figures (64-bit libstdc++): a
// change of node layout or of what a node is charged shows here before it
// moves a budget. The node carries a binding, parents, two contributions
// (one string past the small-string buffer) and an alternative; the graph
// then records a second alternative the way the chase does.
//
// By hand, with sizeof Value 40, Fact 64, Derivation 80,
// AggregateContribution 64 and ChaseNode 168:
//  - fact, past its inline Fact: 7 + (40 + 27) + (40 + 3) = 117;
//  - primary, past its inline Derivation: values (40 + 27) + 40, parents
//    3 * 4, contributions (64 + 4) + (64 + 26 + 8) = 285;
//  - alternative: 80 + 40 + 4 = 124;
//  - node: 168 + 117 + 285 + 124 = 694;
//  - graph: 694 + 64 (index) + the later alternative 80 + 40 + 8 = 886.
TEST(ChaseGraphTest, ApproxBytesPinned) {
  ChaseNode node;
  node.fact = {"Control",
               {Value::String("Acme Holdings International"),
                Value::String("bee")}};
  Derivation& primary = node.derivation;
  primary.rule_index = 2;
  primary.values = {Value::String("Acme Holdings International"),
                    Value::Double(0.75)};
  primary.parents = {0, 1, 2};
  primary.contributions = {
      {Value::Double(0.5), {0}},
      {Value::String("a contributor key past SSO"), {1, 2}}};
  Derivation alt;
  alt.rule_index = 0;
  alt.values = {Value::Int(7)};
  alt.parents = {3};
  node.alternatives.push_back(alt);
  EXPECT_EQ(ApproxBytes(node), 694);

  ChaseGraph graph;
  graph.AddNode(node);
  Derivation later = alt;
  later.parents = {4, 5};
  graph.mutable_node(0).alternatives.push_back(later);
  graph.AddApproxBytes(ApproxBytes(later));
  EXPECT_EQ(graph.approx_bytes(), 886);
}

}  // namespace
}  // namespace templex
