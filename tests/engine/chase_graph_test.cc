#include "engine/chase_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"

namespace templex {
namespace {

ChaseNode Node(const Fact& fact, std::vector<FactId> parents = {},
               const std::string& rule = "") {
  ChaseNode node;
  node.fact = fact;
  node.derivation.parents = std::move(parents);
  node.derivation.rule_label = rule;
  node.derivation.rule_index = rule.empty() ? -1 : 0;
  return node;
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
  graph.AddNode(Node({"Q", {Value::Int(1)}}, {0}, "r1"));
  EXPECT_TRUE(graph.node(0).is_extensional());
  EXPECT_FALSE(graph.node(1).is_extensional());
}

TEST(ChaseGraphTest, AncestorClosureIsSortedAndComplete) {
  ChaseGraph graph;
  graph.AddNode(Node({"A", {}}));                 // 0
  graph.AddNode(Node({"B", {}}));                 // 1
  graph.AddNode(Node({"C", {}}, {0, 1}, "r1"));   // 2
  graph.AddNode(Node({"D", {}}, {2}, "r2"));      // 3
  graph.AddNode(Node({"E", {}}));                 // 4 (unrelated)
  auto closure = graph.AncestorClosure(3);
  EXPECT_EQ(closure, (std::vector<FactId>{0, 1, 2, 3}));
}

TEST(ChaseGraphTest, AncestorClosureHandlesDiamonds) {
  ChaseGraph graph;
  graph.AddNode(Node({"A", {}}));                    // 0
  graph.AddNode(Node({"B", {}}, {0}, "r1"));         // 1
  graph.AddNode(Node({"C", {}}, {0}, "r2"));         // 2
  graph.AddNode(Node({"D", {}}, {1, 2}, "r3"));      // 3
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
  graph.AddNode(Node({"P", {Value::Int(1)}}));
  graph.AddNode(Node({"Q", {Value::Int(1)}}, {0}, "alpha"));
  std::string dot = graph.ToDot();
  EXPECT_NE(dot.find("P(1)"), std::string::npos);
  EXPECT_NE(dot.find("label=\"alpha\""), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(ChaseGraphTest, ToDotRestrictedToGoal) {
  ChaseGraph graph;
  graph.AddNode(Node({"P", {Value::Int(1)}}));
  graph.AddNode(Node({"Q", {Value::Int(1)}}, {0}, "alpha"));
  graph.AddNode(Node({"Unrelated", {}}));
  std::string dot = graph.ToDot(1);
  EXPECT_EQ(dot.find("Unrelated"), std::string::npos);
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
    graph.AddNode(Node({"P", {Value::Int(id)}}, parents, "r"));
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
TEST(ChaseGraphTest, ApproxBytesPinned) {
  ChaseNode node;
  node.fact = {"Control",
               {Value::String("Acme Holdings International"),
                Value::String("bee")}};
  Derivation& primary = node.derivation;
  primary.rule_index = 2;
  primary.rule_label = "sigma3";
  primary.binding.Set("x", Value::String("Acme Holdings International"));
  primary.binding.Set("s", Value::Double(0.75));
  primary.parents = {0, 1, 2};
  primary.contributions = {
      {Value::Double(0.5), {0}},
      {Value::String("a contributor key past SSO"), {1, 2}}};
  Derivation alt;
  alt.rule_index = 0;
  alt.rule_label = "sigma1";
  alt.binding.Set("y", Value::Int(7));
  alt.parents = {3};
  node.alternatives.push_back(alt);
  EXPECT_EQ(ApproxBytes(node), 869);

  ChaseGraph graph;
  graph.AddNode(node);
  Derivation later = alt;
  later.parents = {4, 5};
  graph.mutable_node(0).alternatives.push_back(later);
  graph.AddApproxBytes(ApproxBytes(later));
  EXPECT_EQ(graph.approx_bytes(), 1132);
}

}  // namespace
}  // namespace templex
