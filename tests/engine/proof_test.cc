#include "engine/proof.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <queue>

#include "apps/generators.h"
#include "apps/programs.h"
#include "common/rng.h"
#include "engine/chase.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value I(int64_t i) { return Value::Int(i); }

class ProofTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Program program = SimplifiedStressTestProgram();
    std::vector<Fact> edb = {
        {"Shock", {S("A"), I(6)}},          {"HasCapital", {S("A"), I(5)}},
        {"HasCapital", {S("B"), I(2)}},     {"HasCapital", {S("C"), I(10)}},
        {"Debts", {S("A"), S("B"), I(7)}},  {"Debts", {S("B"), S("C"), I(2)}},
        {"Debts", {S("B"), S("C"), I(9)}},
    };
    auto result = ChaseEngine().Run(program, edb);
    ASSERT_TRUE(result.ok());
    chase_ = std::make_unique<ChaseResult>(std::move(result).value());
  }

  std::unique_ptr<ChaseResult> chase_;
};

TEST_F(ProofTest, Example47RuleSequence) {
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  EXPECT_EQ(proof.RuleLabelSequence(),
            (std::vector<std::string>{"alpha", "beta", "gamma", "beta",
                                      "gamma"}));
  EXPECT_EQ(proof.num_chase_steps(), 5);
}

TEST_F(ProofTest, IntermediateAggregateEmissionsExcluded) {
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  // Risk(C, 2) exists in the chase but is not an ancestor of Default(C).
  FactId partial = chase_->Find({"Risk", {S("C"), I(2)}}).value();
  for (FactId step : proof.steps()) {
    EXPECT_NE(step, partial);
  }
}

TEST_F(ProofTest, EdbFactsGroundTheProof) {
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  EXPECT_EQ(proof.edb_facts().size(), 7u);  // the whole Figure 8 EDB
  for (FactId id : proof.edb_facts()) {
    EXPECT_TRUE(chase_->graph.node(id).is_extensional());
  }
}

TEST_F(ProofTest, ShorterProofForEarlierDefault) {
  FactId goal = chase_->Find({"Default", {S("A")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  EXPECT_EQ(proof.num_chase_steps(), 1);
  EXPECT_EQ(proof.edb_facts().size(), 2u);  // Shock(A), HasCapital(A)
}

TEST_F(ProofTest, StepsAreTopologicallyOrdered) {
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  for (size_t i = 1; i < proof.steps().size(); ++i) {
    EXPECT_LT(proof.steps()[i - 1], proof.steps()[i]);
  }
  EXPECT_EQ(proof.steps().back(), goal);
}

TEST_F(ProofTest, ConstantsCoverEveryValueInTheProof) {
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  auto constants = proof.Constants();
  auto contains = [&constants](const Value& v) {
    return std::find(constants.begin(), constants.end(), v) !=
           constants.end();
  };
  EXPECT_TRUE(contains(S("A")));
  EXPECT_TRUE(contains(S("B")));
  EXPECT_TRUE(contains(S("C")));
  EXPECT_TRUE(contains(I(6)));
  EXPECT_TRUE(contains(I(11)));  // the derived aggregate value
  EXPECT_TRUE(contains(I(2)));
  EXPECT_TRUE(contains(I(9)));
}

TEST_F(ProofTest, ConstantsDeduplicated) {
  FactId goal = chase_->Find({"Default", {S("C")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  auto constants = proof.Constants();
  std::vector<Value> copy = constants;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(std::adjacent_find(copy.begin(), copy.end()), copy.end());
}

TEST_F(ProofTest, ToStringListsStepsWithRules) {
  FactId goal = chase_->Find({"Default", {S("B")}}).value();
  Proof proof = Proof::Extract(chase_->graph, goal);
  std::string text = proof.ToString();
  EXPECT_NE(text.find("[alpha]"), std::string::npos);
  EXPECT_NE(text.find("[beta]"), std::string::npos);
  EXPECT_NE(text.find("[gamma]"), std::string::npos);
  EXPECT_NE(text.find("[edb]"), std::string::npos);
}

// The proof's node order by a reference min-id Kahn sort of the primary
// ancestor closure: the order the proof promises (parents first, ties by
// smallest id).
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

// The debt network with both channels merged into Debts, for the
// single-channel program.
std::vector<Fact> SimplifiedDebtEdb(const std::vector<Fact>& debts) {
  std::vector<Fact> edb;
  for (Fact fact : debts) {
    if (fact.predicate == "LongTermDebts" ||
        fact.predicate == "ShortTermDebts") {
      fact.predicate = "Debts";
    }
    edb.push_back(std::move(fact));
  }
  return edb;
}

// Extract orders the ascending ancestor closure directly. On every goal
// fact of every shipped app that order must be the min-id Kahn order, and
// the goal-override path (here with each goal's own primary derivation, so
// it orders the same closure) must agree.
TEST(ProofOrderTest, PrimaryOrderIsKahnOrderOnEveryShippedApp) {
  OwnershipNetworkOptions network;
  network.companies = 60;
  network.chains = 4;
  network.stars = 4;
  network.star_contributors = 4;
  network.noise_edges = 140;
  network.company_facts = true;
  Rng network_rng(7);
  const std::vector<Fact> ownership =
      GenerateOwnershipNetwork(network, &network_rng);
  std::vector<Fact> golden_power = ownership;
  for (int i = 0; i < network.companies; i += 3) {
    golden_power.push_back({"Strategic", {S(CompanyName(i).c_str())}});
    golden_power.push_back({"Foreign", {S(CompanyName(i + 1).c_str())}});
  }
  for (const Fact& fact : ownership) {
    if (fact.predicate == "Own") {
      golden_power.push_back(
          {"Acquisition", {fact.args[0], fact.args[1], S("d")}});
    }
  }
  DebtNetworkOptions debt;
  debt.institutions = 60;
  debt.cascade_length = 12;
  debt.extra_debts = 600;
  debt.debts_per_channel = 3;
  Rng debt_rng(7);
  const std::vector<Fact> debts = GenerateDebtNetwork(debt, &debt_rng);
  OwnershipDagOptions dag;
  dag.layers = 5;
  dag.width = 5;
  dag.edge_prob = 0.5;
  Rng dag_rng(7);
  const struct {
    const char* app;
    Program program;
    std::vector<Fact> edb;
  } apps[] = {
      {"SimplifiedStressTest", SimplifiedStressTestProgram(),
       SimplifiedDebtEdb(debts)},
      {"CompanyControl", CompanyControlProgram(), ownership},
      {"StressTest", StressTestProgram(), debts},
      {"GoldenPower", GoldenPowerProgram(), golden_power},
      {"CloseLinks", CloseLinksProgram(), GenerateOwnershipDag(dag, &dag_rng)},
  };
  for (const auto& app : apps) {
    auto chase = ChaseEngine().Run(app.program, app.edb);
    ASSERT_TRUE(chase.ok()) << app.app << ": " << chase.status().ToString();
    const ChaseGraph& graph = chase.value().graph;
    const std::vector<FactId>& goals =
        graph.FactsOf(app.program.goal_predicate());
    EXPECT_FALSE(goals.empty()) << app.app;
    for (FactId goal : goals) {
      const Proof proof = Proof::Extract(graph, goal);
      std::vector<FactId> edb;
      std::vector<FactId> steps;
      for (FactId id : KahnOrder(graph, goal)) {
        (graph.node(id).is_extensional() ? edb : steps).push_back(id);
      }
      EXPECT_EQ(proof.steps(), steps) << app.app << " goal " << goal;
      EXPECT_EQ(proof.edb_facts(), edb) << app.app << " goal " << goal;
      const Proof overridden =
          Proof::Extract(graph, goal, graph.node(goal).derivation);
      EXPECT_EQ(overridden.steps(), steps) << app.app << " goal " << goal;
      EXPECT_EQ(overridden.edb_facts(), edb) << app.app << " goal " << goal;
    }
  }
}

}  // namespace
}  // namespace templex
