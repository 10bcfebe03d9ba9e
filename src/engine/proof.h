#ifndef TEMPLEX_ENGINE_PROOF_H_
#define TEMPLEX_ENGINE_PROOF_H_

#include <string>
#include <vector>

#include "engine/chase_graph.h"

namespace templex {

// The proof of a derived fact: the portion of the chase graph that derives
// it, linearized in derivation (= topological) order. The ordered rule
// labels of the intensional steps form the chase-step sequence τ that the
// template mapper consumes (Example 4.7: τ = {α, β, γ, β, γ}).
class Proof {
 public:
  // Extracts the proof of `goal` from `graph`, reading every node's primary
  // derivation. `graph` must outlive the proof (the proof stores a
  // pointer).
  static Proof Extract(const ChaseGraph& graph, FactId goal);

  // The proof of `goal` when it is derived by `goal_derivation` (one of its
  // alternatives, say) instead of its primary derivation; every other node
  // keeps its primary. The goal must not be an ancestor of
  // `goal_derivation`'s parents, which holds for every alternative the
  // chase records. `goal_derivation` must outlive the proof too.
  static Proof Extract(const ChaseGraph& graph, FactId goal,
                       const Derivation& goal_derivation);

  const ChaseGraph& graph() const { return *graph_; }
  FactId goal() const { return goal_; }

  // The derivation this proof reads for node `id`: the goal's override if
  // one was given, the graph's primary derivation otherwise. Readers of a
  // proof take derivations from here, never from graph().node(id).
  const Derivation& derivation(FactId id) const {
    return id == goal_ && goal_derivation_ != nullptr
               ? *goal_derivation_
               : graph_->node(id).derivation;
  }

  // Intensional facts of the proof in derivation order (the goal is last).
  const std::vector<FactId>& steps() const { return steps_; }

  // Extensional facts the proof is grounded in, ascending by id.
  const std::vector<FactId>& edb_facts() const { return edb_facts_; }

  // Number of chase steps (= intensional facts) in the proof; the x-axis of
  // Figures 17 and 18.
  int num_chase_steps() const { return static_cast<int>(steps_.size()); }

  // The ordered rule-label sequence τ of the proof.
  std::vector<std::string> RuleLabelSequence() const;

  // Every distinct constant appearing in any fact of the proof (extensional
  // and intensional). This is the denominator of the omission metric of
  // Figure 17: a complete explanation must mention all of them.
  std::vector<Value> Constants() const;

  // Human-readable listing, one step per line, for debugging.
  std::string ToString() const;

 private:
  // Splits `ordered` (a topological order of the closure) into steps_ and
  // edb_facts_.
  void Classify(const std::vector<FactId>& ordered);

  const ChaseGraph* graph_ = nullptr;
  FactId goal_ = kInvalidFactId;
  const Derivation* goal_derivation_ = nullptr;
  std::vector<FactId> steps_;
  std::vector<FactId> edb_facts_;
};

}  // namespace templex

#endif  // TEMPLEX_ENGINE_PROOF_H_
