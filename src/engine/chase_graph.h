#ifndef TEMPLEX_ENGINE_CHASE_GRAPH_H_
#define TEMPLEX_ENGINE_CHASE_GRAPH_H_

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/flat_index.h"
#include "datalog/symbol.h"
#include "engine/fact.h"

namespace templex {

// Provenance of one input to an aggregation: the value that was aggregated
// and the body facts of the match that produced it. Needed both to explain
// "a total of 11M (sum of loans of 2M and 9M)" and to select the dashed
// (multi-contributor) template variant during mapping.
struct AggregateContribution {
  Value input;
  std::vector<FactId> parents;
};

// A way a fact was derived: rule, homomorphism, matched facts, and (for
// aggregations) the contributor set. Names are not stored here: the rule's
// label and the variable of each value slot live once per rule in the
// graph's RuleTable.
struct Derivation {
  // Index of the deriving rule in the Program, or -1 for extensional facts.
  int rule_index = -1;

  // The homomorphism θ of the deriving chase step (augmented with assignment
  // and aggregate-result variables) as slot values, in the order of the
  // rule's RuleSchema::binding_names. Empty for extensional facts.
  std::vector<Value> values;

  // Ids of the facts this fact directly derives from, in body-atom order
  // (for aggregations: the union over all contributions, deduplicated).
  std::vector<FactId> parents;

  // Non-empty iff the deriving rule aggregates; one entry per contributor
  // that participated in the emitted aggregate value.
  std::vector<AggregateContribution> contributions;

  bool is_extensional() const { return rule_index < 0; }
};

// What every derivation by one rule shares, kept once per rule instead of
// on each derivation: the rule's label and the variable name of each value
// slot (RulePlan::binding_names).
struct RuleSchema {
  std::string label;
  std::vector<std::string> binding_names;
};

// Indexed by Derivation::rule_index.
using RuleTable = std::vector<RuleSchema>;

// Content-based footprint of a derivation / contribution (see
// Value::ApproxBytes for the discipline: lengths, never capacities).
int64_t ApproxBytes(const AggregateContribution& contribution);
int64_t ApproxBytes(const Derivation& derivation);

// One node of the chase graph G(D, Σ): a fact plus how it was derived. The
// first (chronologically earliest) derivation is the primary one used by
// proofs; later re-derivations that tell a different story are kept as
// bounded `alternatives` — the other reasoning stories an analyst can ask
// for (Explainer::ExplainAllDerivations).
struct ChaseNode {
  Fact fact;
  Derivation derivation;

  // Alternative derivations, capped by
  // ChaseConfig::max_alternative_derivations. Each one is acyclic (no
  // parent depends on this node along primary derivations, though a parent
  // may postdate it) and tells a new story: no recorded derivation by the
  // same rule has the same parents or, for an aggregate rule, parents
  // included in its own (a re-emission of the fold with more contributors
  // is the same story; DESIGN.md §3).
  std::vector<Derivation> alternatives;

  bool is_extensional() const { return derivation.is_extensional(); }
};

int64_t ApproxBytes(const ChaseNode& node);

// The chase graph: facts as nodes, derivation edges from parents to the
// derived fact. Nodes are appended in derivation order; a fact is stored at
// most once (set semantics), so the graph doubles as the fact database.
//
// The graph owns the run's SymbolTable: AddNode interns each fact's
// predicate and stamps Fact::pred_symbol, and maintains a dense
// per-predicate id index, so the engine's hot paths (matching, candidate
// indexing, existential reuse, pattern queries) operate on ints and O(1)
// lookups while the stored strings keep every report and explanation
// byte-identical.
class ChaseGraph {
 public:
  ChaseGraph() = default;

  // Adds a node for `node.fact` if the fact is new. Returns (id, true) when
  // inserted, (existing id, false) otherwise. On insertion the fact's
  // predicate is interned and `pred_symbol` assigned.
  std::pair<FactId, bool> AddNode(ChaseNode node);

  // Id of an existing fact, if present.
  std::optional<FactId> Find(const Fact& fact) const;

  // One-probe insertion for callers that build a node only for a new fact:
  // Find with the fact's precomputed hash (`hash` == fact.Hash()), then —
  // on a miss — Insert the node under the same hash. Insert requires that
  // the fact is absent; it does everything AddNode does for a new fact.
  std::optional<FactId> Find(const Fact& fact, size_t hash) const;
  FactId Insert(ChaseNode node, size_t hash);

  const ChaseNode& node(FactId id) const { return nodes_[id]; }
  ChaseNode& mutable_node(FactId id) { return nodes_[id]; }

  int size() const { return static_cast<int>(nodes_.size()); }

  // All ancestor fact ids of `id` (including `id`), ascending — i.e. the
  // sub-chase-graph that derives the fact, topologically ordered.
  std::vector<FactId> AncestorClosure(FactId id) const;
  // The union of the closures of every id in `roots`, ascending.
  std::vector<FactId> AncestorClosure(std::span<const FactId> roots) const;

  // True iff `target` is in AncestorClosure(node) — node transitively
  // depends on target along primary derivations (node == target counts).
  // Equivalent to a membership test on AncestorClosure but far cheaper for
  // a negative or shallow answer. Every primary derivation step strictly
  // lowers the derivation level (levels_), so a node at a level no
  // higher than target's cannot depend on it: that test answers most calls
  // without a walk, and prunes the walk that remains, together with every
  // branch that drops below `target`'s id. The walk reuses per-thread
  // scratch rather than allocating per call. It relies on the graph's
  // invariant that every node's primary parents have smaller ids.
  bool DependsOn(FactId node, FactId target) const;

  // All facts of a given predicate, ascending by id. O(1): returns the
  // per-predicate index maintained by AddNode. The reference stays valid
  // while facts are appended (per-predicate lists live in a deque), but
  // appended ids become visible in it — iterate over a size snapshot when
  // inserting concurrently with a scan.
  const std::vector<FactId>& FactsOf(const std::string& predicate) const;
  const std::vector<FactId>& FactsOf(Symbol predicate) const;

  // The graph's predicate/constant interner. Mutable access lets the chase
  // intern rule predicates when compiling match plans against this graph.
  const SymbolTable& symbols() const { return symbols_; }
  SymbolTable& symbols() { return symbols_; }

  // The per-rule table the derivations index into. The chase installs it
  // from its compiled plans; it is immutable, and copies of the graph share
  // it.
  void set_rules(std::shared_ptr<const RuleTable> rules) {
    rules_ = std::move(rules);
  }
  // The schema of rule `rule_index`, or null when the table does not hold
  // it (an extensional fact's -1, or a hand-built graph without a table).
  const RuleSchema* rule(int rule_index) const;

  // The label of rule `rule_index`; empty for an extensional fact's -1 or
  // a rule the table does not hold.
  const std::string& RuleLabel(int rule_index) const;

  // θ of a derivation by rule `rule_index` (or of a constraint violation)
  // as "{x=\"A\", s=0.6}", names from the rule table; "{}" for an
  // extensional fact. For debugging, violations and digests.
  std::string BindingToString(int rule_index,
                              std::span<const Value> values) const;

  // GraphViz DOT rendering of the sub-graph deriving `goal` (the whole
  // graph if goal == kInvalidFactId). Edges are labelled with rule labels.
  std::string ToDot(FactId goal = kInvalidFactId) const;

  // Content-based footprint of the graph (nodes + a fixed per-node index
  // overhead), maintained incrementally by AddNode. Mutations that bypass
  // AddNode (recording an alternative through mutable_node) account their
  // growth via AddApproxBytes. Deterministic across checkpoint resume —
  // see common/memory.h.
  int64_t approx_bytes() const { return approx_bytes_; }
  void AddApproxBytes(int64_t bytes) { approx_bytes_ += bytes; }

 private:
  std::vector<ChaseNode> nodes_;
  // Primary-derivation level per node: 0 without parents, otherwise one
  // more than the highest primary parent's. Computed at insertion from the
  // parents that precede the node (all of them, for a chase-built graph).
  std::vector<int32_t> levels_;
  // Dedup index: fact hash -> node id, no Fact key copies. Candidates are
  // verified against nodes_, so a 64-bit collision costs one extra compare,
  // never a wrong merge.
  FlatIndex index_;
  SymbolTable symbols_;
  // pred_symbol -> ascending fact ids. Deque: growing the outer container
  // when a new predicate appears must not move existing lists — FactsOf
  // references are held across insertions by the match enumerator.
  std::deque<std::vector<FactId>> by_predicate_;
  std::vector<FactId> empty_;
  std::shared_ptr<const RuleTable> rules_;
  int64_t approx_bytes_ = 0;
};

}  // namespace templex

#endif  // TEMPLEX_ENGINE_CHASE_GRAPH_H_
