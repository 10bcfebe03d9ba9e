#include "engine/proof.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

namespace templex {

Proof Proof::Extract(const ChaseGraph& graph, FactId goal) {
  Proof proof;
  proof.graph_ = &graph;
  proof.goal_ = goal;
  // Topologically order the derivation sub-graph. In a freshly chased
  // graph parents always precede children by id, but in a variant graph
  // (ChaseGraph::WithAlternative) the swapped derivation may point at
  // later-derived facts — so we Kahn-sort explicitly, breaking ties by id
  // to keep the primary-graph order identical to the id order.
  const std::vector<FactId> closure = graph.AncestorClosure(goal);
  const std::set<FactId> members(closure.begin(), closure.end());
  std::map<FactId, int> pending;  // unprocessed parents per node
  std::map<FactId, std::vector<FactId>> children;
  for (FactId id : closure) {
    int parents_in = 0;
    for (FactId parent : graph.node(id).derivation.parents) {
      if (members.count(parent) > 0) {
        ++parents_in;
        children[parent].push_back(id);
      }
    }
    pending[id] = parents_in;
  }
  std::priority_queue<FactId, std::vector<FactId>, std::greater<FactId>>
      ready;
  for (FactId id : closure) {
    if (pending[id] == 0) ready.push(id);
  }
  std::vector<FactId> ordered;
  while (!ready.empty()) {
    FactId id = ready.top();
    ready.pop();
    ordered.push_back(id);
    for (FactId child : children[id]) {
      if (--pending[child] == 0) ready.push(child);
    }
  }
  // A cycle would leave nodes unemitted; append them in id order so the
  // proof is at least complete (cannot happen for engine-produced graphs).
  if (ordered.size() < closure.size()) {
    for (FactId id : closure) {
      if (std::find(ordered.begin(), ordered.end(), id) == ordered.end()) {
        ordered.push_back(id);
      }
    }
  }
  for (FactId id : ordered) {
    if (graph.node(id).is_extensional()) {
      proof.edb_facts_.push_back(id);
    } else {
      proof.steps_.push_back(id);
    }
  }
  return proof;
}

std::vector<std::string> Proof::RuleLabelSequence() const {
  std::vector<std::string> labels;
  labels.reserve(steps_.size());
  for (FactId id : steps_) {
    labels.push_back(graph_->node(id).derivation.rule_label);
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
    const ChaseNode& node = graph_->node(id);
    result += "  [" + node.derivation.rule_label + "]  " +
              node.fact.ToString() + "  <-";
    for (FactId parent : node.derivation.parents) {
      result += " " + graph_->node(parent).fact.ToString();
    }
    result += "\n";
  }
  return result;
}

}  // namespace templex
