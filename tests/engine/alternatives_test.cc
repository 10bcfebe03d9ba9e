// Alternative derivations: the chase records bounded, acyclic
// re-derivations of already-known facts so every reasoning story can be
// surfaced — not only the chronologically first proof.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <set>

#include "apps/generators.h"
#include "apps/glossaries.h"
#include "apps/programs.h"
#include "common/rng.h"
#include "datalog/parser.h"
#include "engine/chase.h"
#include "engine/proof.h"
#include "explain/explainer.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value D(double d) { return Value::Double(d); }

// A controls C both directly (60% of shares, σ1) and through its
// wholly-controlled subsidiary B (55% via σ3's sum, counting A's own 30%
// through the auto-control).
std::vector<Fact> DualControlEdb() {
  return {
      {"Company", {S("A")}},
      {"Own", {S("A"), S("C"), D(0.6)}},
      {"Own", {S("A"), S("B"), D(0.9)}},
      {"Own", {S("B"), S("C"), D(0.3)}},
  };
}

// The ownership network of golden_provenance_test (60 companies, seed 7).
std::vector<Fact> ControlEdb() {
  OwnershipNetworkOptions options;
  options.companies = 60;
  options.chains = 4;
  options.stars = 4;
  options.star_contributors = 4;
  options.noise_edges = 140;
  options.company_facts = true;
  Rng rng(7);
  return GenerateOwnershipNetwork(options, &rng);
}

// True iff every id of `inner` occurs in `outer`.
bool Includes(const std::vector<FactId>& outer,
              const std::vector<FactId>& inner) {
  std::set<FactId> ids(outer.begin(), outer.end());
  return std::ranges::all_of(inner,
                             [&ids](FactId id) { return ids.count(id) > 0; });
}

TEST(AlternativesTest, DualDerivationRecorded) {
  auto chase = ChaseEngine().Run(CompanyControlProgram(), DualControlEdb());
  ASSERT_TRUE(chase.ok()) << chase.status().ToString();
  FactId id = chase.value().Find({"Control", {S("A"), S("C")}}).value();
  const ChaseNode& node = chase.value().graph.node(id);
  // Primary via the direct-majority rule plus at least one σ3 story.
  std::set<std::string> rules = {node.derivation.rule_label};
  for (const Derivation& alt : node.alternatives) {
    rules.insert(alt.rule_label);
  }
  EXPECT_TRUE(rules.count("sigma1") > 0);
  EXPECT_TRUE(rules.count("sigma3") > 0);
}

TEST(AlternativesTest, DisabledByConfig) {
  ChaseConfig config;
  config.max_alternative_derivations = 0;
  auto chase =
      ChaseEngine(config).Run(CompanyControlProgram(), DualControlEdb());
  ASSERT_TRUE(chase.ok());
  FactId id = chase.value().Find({"Control", {S("A"), S("C")}}).value();
  EXPECT_TRUE(chase.value().graph.node(id).alternatives.empty());
}

TEST(AlternativesTest, CapHonoured) {
  ChaseConfig config;
  config.max_alternative_derivations = 1;
  auto chase =
      ChaseEngine(config).Run(CompanyControlProgram(), DualControlEdb());
  ASSERT_TRUE(chase.ok());
  FactId id = chase.value().Find({"Control", {S("A"), S("C")}}).value();
  EXPECT_LE(chase.value().graph.node(id).alternatives.size(), 1u);
}

TEST(AlternativesTest, AlternativesAreAcyclic) {
  auto chase = ChaseEngine().Run(CompanyControlProgram(), DualControlEdb());
  ASSERT_TRUE(chase.ok());
  // No alternative parent may transitively depend on the fact itself.
  for (FactId id = 0; id < chase.value().graph.size(); ++id) {
    for (const Derivation& alt : chase.value().graph.node(id).alternatives) {
      for (FactId parent : alt.parents) {
        auto closure = chase.value().graph.AncestorClosure(parent);
        EXPECT_FALSE(
            std::binary_search(closure.begin(), closure.end(), id));
      }
    }
  }
}

// The min-id Kahn order (parents first, ties by smallest id) of the
// ancestor closure of `goal`, read through `graph`'s primary derivations.
std::vector<FactId> KahnOrder(const ChaseGraph& graph, FactId goal) {
  std::map<FactId, int> pending;
  std::map<FactId, std::vector<FactId>> children;
  for (FactId id : graph.AncestorClosure(goal)) pending[id] = 0;
  for (auto& [id, unemitted] : pending) {
    for (FactId parent : graph.node(id).derivation.parents) {
      ++unemitted;
      children[parent].push_back(id);
    }
  }
  std::priority_queue<FactId, std::vector<FactId>, std::greater<FactId>>
      ready;
  for (const auto& [id, unemitted] : pending) {
    if (unemitted == 0) ready.push(id);
  }
  std::vector<FactId> order;
  while (!ready.empty()) {
    const FactId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (FactId child : children[id]) {
      if (--pending[child] == 0) ready.push(child);
    }
  }
  return order;
}

// Each story of ExplainAllDerivations is the proof read through the
// alternative as the goal's override. Its steps must come in the min-id
// Kahn order of a copy of the graph whose node has that alternative
// swapped in (its parents may postdate the node), and its text must equal
// the story told from that copy.
TEST(AlternativesTest, StoriesMatchSwappedCopies) {
  for (bool golden_network : {false, true}) {
    auto explainer =
        Explainer::Create(CompanyControlProgram(), CompanyControlGlossary());
    ASSERT_TRUE(explainer.ok());
    auto chase = ChaseEngine().Run(explainer.value()->program(),
                                   golden_network ? ControlEdb()
                                                  : DualControlEdb());
    ASSERT_TRUE(chase.ok());
    const ChaseGraph& graph = chase.value().graph;
    int checked = 0;
    for (FactId id = 0; id < graph.size(); ++id) {
      const ChaseNode& node = graph.node(id);
      if (node.alternatives.empty()) continue;
      auto stories =
          explainer.value()->ExplainAllDerivations(chase.value(), node.fact);
      ASSERT_TRUE(stories.ok()) << stories.status().ToString();
      ASSERT_EQ(stories.value().size(), node.alternatives.size() + 1);
      for (size_t i = 0; i < node.alternatives.size(); ++i) {
        ChaseGraph copy = graph;
        ChaseNode& swapped = copy.mutable_node(id);
        std::swap(swapped.derivation, swapped.alternatives[i]);
        std::vector<FactId> edb;
        std::vector<FactId> steps;
        for (FactId step : KahnOrder(copy, id)) {
          (copy.node(step).is_extensional() ? edb : steps).push_back(step);
        }
        const Proof story = Proof::Extract(graph, id, node.alternatives[i]);
        EXPECT_EQ(story.steps(), steps) << node.fact.ToString();
        EXPECT_EQ(story.edb_facts(), edb) << node.fact.ToString();
        auto text = explainer.value()->ExplainProof(
            Proof::Extract(copy, id, copy.node(id).derivation));
        ASSERT_TRUE(text.ok()) << text.status().ToString();
        EXPECT_EQ(stories.value()[i + 1], text.value())
            << node.fact.ToString() << " alternative " << i;
        ++checked;
      }
    }
    EXPECT_GT(checked, 0) << "golden_network=" << golden_network;
  }
}

TEST(AlternativesTest, ExplainAllDerivationsTellsBothStories) {
  auto explainer =
      Explainer::Create(CompanyControlProgram(), CompanyControlGlossary());
  ASSERT_TRUE(explainer.ok());
  auto chase =
      ChaseEngine().Run(explainer.value()->program(), DualControlEdb());
  ASSERT_TRUE(chase.ok());
  auto stories = explainer.value()->ExplainAllDerivations(
      chase.value(), {"Control", {S("A"), S("C")}});
  ASSERT_TRUE(stories.ok()) << stories.status().ToString();
  ASSERT_GE(stories.value().size(), 2u);
  // One story cites the direct 60% stake, another the joint 30%-through-B
  // route; which is primary depends on derivation order.
  std::string all;
  for (const std::string& story : stories.value()) all += story + "\n---\n";
  EXPECT_NE(all.find("60%"), std::string::npos) << all;
  EXPECT_NE(all.find("30%"), std::string::npos) << all;
  EXPECT_NE(stories.value()[0], stories.value()[1]);
}

TEST(AlternativesTest, SingleStoryFactsYieldOneExplanation) {
  auto explainer =
      Explainer::Create(CompanyControlProgram(), CompanyControlGlossary());
  ASSERT_TRUE(explainer.ok());
  std::vector<Fact> edb = {{"Own", {S("X"), S("Y"), D(0.7)}}};
  auto chase = ChaseEngine().Run(explainer.value()->program(), edb);
  ASSERT_TRUE(chase.ok());
  auto stories = explainer.value()->ExplainAllDerivations(
      chase.value(), {"Control", {S("X"), S("Y")}});
  ASSERT_TRUE(stories.ok());
  EXPECT_EQ(stories.value().size(), 1u);
}

TEST(AlternativesTest, DuplicateRederivationNotRecordedTwice) {
  // Naive evaluation re-derives facts every round: the alternative list
  // must still contain distinct derivations only.
  ChaseConfig config;
  config.semi_naive = false;
  auto chase =
      ChaseEngine(config).Run(CompanyControlProgram(), DualControlEdb());
  ASSERT_TRUE(chase.ok());
  for (FactId id = 0; id < chase.value().graph.size(); ++id) {
    const ChaseNode& node = chase.value().graph.node(id);
    for (size_t i = 0; i < node.alternatives.size(); ++i) {
      EXPECT_FALSE(
          node.alternatives[i].rule_index == node.derivation.rule_index &&
          node.alternatives[i].parents == node.derivation.parents);
      for (size_t j = i + 1; j < node.alternatives.size(); ++j) {
        EXPECT_FALSE(
            node.alternatives[i].rule_index ==
                node.alternatives[j].rule_index &&
            node.alternatives[i].parents == node.alternatives[j].parents);
      }
    }
  }
}

// An aggregate re-emission with more contributors is the same story: no
// kept aggregate alternative has parents that include those of its fact's
// primary or of an earlier alternative by the same rule. The σ1/σ3 stories
// survive, at the default cap and at one that never binds.
TEST(AlternativesTest, AggregateReemissionsAreNotNewStories) {
  const Program program = CompanyControlProgram();
  for (bool golden_network : {false, true}) {
    const std::vector<Fact> edb =
        golden_network ? ControlEdb() : DualControlEdb();
    std::vector<int> mixed_facts;
    for (int cap : {4, 1000}) {
      ChaseConfig config;
      config.max_alternative_derivations = cap;
      auto chase = ChaseEngine(config).Run(program, edb);
      ASSERT_TRUE(chase.ok()) << chase.status().ToString();
      const ChaseGraph& graph = chase.value().graph;
      int mixed = 0;
      for (FactId id = 0; id < graph.size(); ++id) {
        const ChaseNode& node = graph.node(id);
        std::set<std::string> rules = {node.derivation.rule_label};
        for (size_t i = 0; i < node.alternatives.size(); ++i) {
          const Derivation& alt = node.alternatives[i];
          rules.insert(alt.rule_label);
          if (!program.rules()[alt.rule_index].has_aggregate()) continue;
          for (size_t k = 0; k <= i; ++k) {
            const Derivation& known =
                k == 0 ? node.derivation : node.alternatives[k - 1];
            if (known.rule_index != alt.rule_index) continue;
            EXPECT_FALSE(Includes(alt.parents, known.parents))
                << node.fact.ToString() << " cap=" << cap
                << " alternative " << i;
          }
        }
        if (rules.count("sigma1") > 0 && rules.count("sigma3") > 0) ++mixed;
      }
      EXPECT_GT(mixed, 0) << "golden_network=" << golden_network
                          << " cap=" << cap;
      mixed_facts.push_back(mixed);
      if (!golden_network) {
        const ChaseNode& dual =
            graph.node(chase.value().Find({"Control", {S("A"), S("C")}})
                           .value());
        std::set<std::string> dual_rules = {dual.derivation.rule_label};
        for (const Derivation& alt : dual.alternatives) {
          dual_rules.insert(alt.rule_label);
        }
        EXPECT_EQ(dual_rules, (std::set<std::string>{"sigma1", "sigma3"}))
            << "cap=" << cap;
      }
    }
    // The cap of 4 drops no σ1/σ3 story that an unbounded list keeps.
    EXPECT_EQ(mixed_facts[0], mixed_facts[1])
        << "golden_network=" << golden_network;
  }
}

// The inclusion test is for aggregates only: a rule without one re-derives
// a fact through other facts, and that stays a story even when its parents
// include the primary's. Here Q(a) is derived from P(a, b) twice over (the
// primary) and then from P(a, b) and P(a, c).
TEST(AlternativesTest, NonAggregateRederivationIsKept) {
  const Program program = ParseProgram(R"(
@goal Q.
r: P(x, y), P(x, z) -> Q(x).
)")
                              .value();
  const std::vector<Fact> edb = {{"P", {S("a"), S("b")}},
                                 {"P", {S("a"), S("c")}}};
  auto chase = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(chase.ok()) << chase.status().ToString();
  const ChaseNode& node =
      chase.value().graph.node(chase.value().Find({"Q", {S("a")}}).value());
  EXPECT_EQ(node.derivation.parents, (std::vector<FactId>{0, 0}));
  std::vector<std::vector<FactId>> alternatives;
  for (const Derivation& alt : node.alternatives) {
    alternatives.push_back(alt.parents);
  }
  EXPECT_EQ(alternatives,
            (std::vector<std::vector<FactId>>{{0, 1}, {1, 0}, {1, 1}}));
}

}  // namespace
}  // namespace templex
