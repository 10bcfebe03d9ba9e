#ifndef TEMPLEX_ENGINE_FACT_STORE_H_
#define TEMPLEX_ENGINE_FACT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datalog/atom.h"
#include "datalog/binding.h"
#include "engine/chase_graph.h"
#include "engine/fact.h"
#include "engine/position_index.h"
#include "engine/rule_plan.h"

namespace templex {

// Secondary index layer over a ChaseGraph used by the body matcher: facts
// per (predicate, argument position, value) so joins can scan only
// candidates agreeing with already-bound variables. Per-predicate lists
// live in the graph itself (ChaseGraph::FactsOf); this class owns the
// position index (engine/position_index.h) while a run builds it. At the
// end of a run the chase takes the index into ChaseResult for point
// lookups.
class FactStore {
 public:
  explicit FactStore(const ChaseGraph* graph) : graph_(graph) {}

  FactStore(const FactStore&) = delete;
  FactStore& operator=(const FactStore&) = delete;

  // Registers a newly inserted fact in the position index. Must be called
  // exactly once per ChaseGraph node, in id order, after the graph assigned
  // the fact's pred_symbol.
  void OnNewFact(FactId id) { index_.Add(id, graph_->node(id).fact); }

  // All facts of a predicate, ascending by id (delegates to the graph's
  // per-predicate index).
  const std::vector<FactId>& FactsOf(const std::string& predicate) const {
    return graph_->FactsOf(predicate);
  }

  // Candidate facts that could match `atom` under the enumerator's per-slot
  // value array `slots`: if some atom position holds a constant or an
  // already-bound variable, the most selective position index is used;
  // otherwise the full predicate list is returned. Which slots are readable
  // is static (TermPlan::bound_at_entry), so no bound flags travel with
  // them. Candidates still need a full match check.
  const std::vector<FactId>& CandidatesFor(const AtomPlan& atom,
                                           const Value* slots) const;

  const PositionIndex& position_index() const { return index_; }

  // Replaces the position index with a copy of `index`, which must cover
  // exactly the graph's current nodes (index.indexed_facts() == graph
  // size): the same state OnNewFact over every node would build, without
  // re-hashing a single argument. Extend seeds from its base this way.
  void SeedPositionIndex(const PositionIndex& index) { index_ = index; }

  // Hands the position index over (ChaseResult::position_index) and leaves
  // this store without one: call only once the run is done with the store.
  PositionIndex TakePositionIndex() { return std::move(index_); }

  // Content-based footprint of the position index (common/memory.h
  // accounting).
  int64_t approx_bytes() const { return index_.approx_bytes(); }

  void set_position_key_mask_for_testing(uint64_t mask) {
    index_.set_position_key_mask_for_testing(mask);
  }

 private:
  const ChaseGraph* graph_;
  PositionIndex index_;
  std::vector<FactId> empty_;
};

// Returns true and extends `binding` iff `fact` matches `atom` under the
// current (partial) binding: constants must equal, variables unify.
bool MatchAtom(const Atom& atom, const Fact& fact, Binding* binding);

}  // namespace templex

#endif  // TEMPLEX_ENGINE_FACT_STORE_H_
