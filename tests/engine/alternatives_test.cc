// Alternative derivations: the chase records bounded, acyclic
// re-derivations of already-known facts so every reasoning story can be
// surfaced — not only the chronologically first proof.

#include <gtest/gtest.h>

#include "apps/glossaries.h"
#include "apps/programs.h"
#include "engine/chase.h"
#include "engine/proof.h"
#include "explain/explainer.h"
#include "io/json.h"

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

TEST(AlternativesTest, WithAlternativeSwapsDerivation) {
  auto chase = ChaseEngine().Run(CompanyControlProgram(), DualControlEdb());
  ASSERT_TRUE(chase.ok());
  FactId id = chase.value().Find({"Control", {S("A"), S("C")}}).value();
  const ChaseNode& node = chase.value().graph.node(id);
  ASSERT_FALSE(node.alternatives.empty());
  const std::string original = ChaseGraphToJson(chase.value().graph);
  ChaseGraph variant = chase.value().graph.WithAlternative(id, 0);
  EXPECT_EQ(variant.node(id).derivation.rule_label,
            node.alternatives[0].rule_label);
  // The old primary is now the alternative.
  EXPECT_EQ(variant.node(id).alternatives[0].rule_label,
            node.derivation.rule_label);
  EXPECT_NE(ChaseGraphToJson(variant), original);
  // The source graph is untouched, and swapping back restores it byte for
  // byte.
  EXPECT_EQ(ChaseGraphToJson(chase.value().graph), original);
  EXPECT_EQ(ChaseGraphToJson(variant.WithAlternative(id, 0)), original);
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

}  // namespace
}  // namespace templex
