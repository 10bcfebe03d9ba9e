#include "engine/proof.h"

#include <algorithm>

namespace templex {

Proof Proof::Extract(const ChaseGraph& graph, FactId goal) {
  Proof proof;
  proof.graph_ = &graph;
  proof.goal_ = goal;
  // Every primary parent has a smaller id than its child, so the ascending
  // closure is a topological order: parents first, ties by smallest id.
  proof.Classify(graph.AncestorClosure(goal));
  return proof;
}

Proof Proof::Extract(const ChaseGraph& graph, FactId goal,
                     const Derivation& goal_derivation) {
  Proof proof;
  proof.graph_ = &graph;
  proof.goal_ = goal;
  proof.goal_derivation_ = &goal_derivation;
  // The rest of the closure reads primaries, so ascending is topological
  // there; the goal, which none of it depends on, goes last even when some
  // of its parents postdate it.
  std::vector<FactId> ordered = graph.AncestorClosure(goal_derivation.parents);
  ordered.push_back(goal);
  proof.Classify(ordered);
  return proof;
}

void Proof::Classify(const std::vector<FactId>& ordered) {
  for (FactId id : ordered) {
    if (derivation(id).is_extensional()) {
      edb_facts_.push_back(id);
    } else {
      steps_.push_back(id);
    }
  }
}

std::vector<std::string> Proof::RuleLabelSequence() const {
  std::vector<std::string> labels;
  labels.reserve(steps_.size());
  for (FactId id : steps_) {
    labels.push_back(graph_->RuleLabel(derivation(id).rule_index));
  }
  return labels;
}

std::vector<Value> Proof::Constants() const {
  std::vector<Value> constants;
  auto add_fact = [this, &constants](FactId id) {
    for (const Value& v : graph_->node(id).fact.args) {
      if (std::find(constants.begin(), constants.end(), v) ==
          constants.end()) {
        constants.push_back(v);
      }
    }
  };
  for (FactId id : edb_facts_) add_fact(id);
  for (FactId id : steps_) add_fact(id);
  return constants;
}

std::string Proof::ToString() const {
  std::string result;
  for (FactId id : edb_facts_) {
    result += "  [edb] " + graph_->node(id).fact.ToString() + "\n";
  }
  for (FactId id : steps_) {
    const Derivation& step = derivation(id);
    result += "  [" + graph_->RuleLabel(step.rule_index) + "]  " +
              graph_->node(id).fact.ToString() + "  <-";
    for (FactId parent : step.parents) {
      result += " " + graph_->node(parent).fact.ToString();
    }
    result += "\n";
  }
  return result;
}

}  // namespace templex
