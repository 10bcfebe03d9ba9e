#ifndef TEMPLEX_ENGINE_FACT_STORE_H_
#define TEMPLEX_ENGINE_FACT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datalog/atom.h"
#include "datalog/binding.h"
#include "engine/chase_graph.h"
#include "engine/fact.h"
#include "engine/node_graph.h"
#include "engine/position_index.h"
#include "engine/rule_plan.h"
#include "engine/segment.h"

namespace templex {

// Secondary index layer over a ChaseGraph used by the body matcher: facts
// per (predicate, argument position, value) so joins can scan only
// candidates agreeing with already-bound variables. Per-predicate lists
// live in the graph itself (ChaseGraph::FactsOf); this class owns the
// position index (engine/position_index.h) while a run builds it, and (in
// merge-join mode) the per-predicate columnar segment chains the merge path
// enumerates instead of probing. At the end of a run the chase takes the
// position index into ChaseResult for point lookups; the chains die with
// the run.
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

  // Candidate facts that could match `atom` under `binding`: if some atom
  // position holds a constant or an already-bound variable, the most
  // selective position index is used; otherwise the full predicate list is
  // returned. Candidates still need a full MatchAtom check.
  const std::vector<FactId>& CandidatesFor(const Atom& atom,
                                           const Binding& binding) const;

  // Compiled-plan twin of CandidatesFor: slot-indexed bound lookups, int
  // predicate — the chase hot path. `slots` is the enumerator's per-slot
  // value array; which slots are readable is static (TermPlan::
  // bound_at_entry), so no bound flags travel with it.
  const std::vector<FactId>& CandidatesFor(const AtomPlan& atom,
                                           const Value* slots) const;

  // --- Columnar delta segments (merge-join mode) ---

  // Turns on segment building: every SealRound from now on appends the
  // new facts' columns to per-predicate chains. Off by default — probe
  // mode pays nothing for the machinery it never reads.
  void EnableSegments() { segments_enabled_ = true; }
  bool segments_enabled() const { return segments_enabled_; }

  // Turns segment building off and releases every chain — the memory
  // governor's soft-pressure degradation step. The matcher's join chooser
  // (ComputeAtomJoins) keys on segments_enabled(), so from the next round's
  // planning on, every atom falls back to the probe path; SealRound keeps
  // recording SegmentNodes (the trigger graph is semantics-relevant and
  // cheap). Call only between rounds: ChainOf pointers cached by compiled
  // plans die here.
  void DisableSegments() {
    segments_enabled_ = false;
    chains_.clear();
  }

  // Sealing heuristic: a predicate's chain is only built once the predicate
  // holds at least this many facts below the seal limit; the first build
  // then backfills one segment covering all of them, so a present chain
  // always spans [0, sealed_limit). Colder predicates stay chain-less —
  // ComputeAtomJoins sees arity() == -1 and probes, which recovers the
  // small-workload sealing overhead. <= 0 (the default) builds on first
  // contact. Hotness is a pure function of (predicate, seal limit), so
  // resumed runs make identical choices at identical limits.
  void SetSegmentHotMinFacts(int64_t min_facts) {
    segment_hot_min_facts_ = min_facts;
  }
  int64_t segment_hot_min_facts() const { return segment_hot_min_facts_; }

  // Restricts segment building to the flagged predicates (index = Symbol).
  // The matcher only merge-joins predicates occurring in positive rule
  // bodies, so chains for head-only output predicates are pure overhead —
  // the chase flags body predicates once plans are compiled. Predicates
  // beyond the vector (interned later) are treated as unflagged. An empty
  // vector means no filter: every predicate builds chains.
  void SetSegmentPredicates(std::vector<bool> wanted) {
    segment_predicates_ = std::move(wanted);
  }

  // Seals the facts in [sealed_limit, limit): records one SegmentNode per
  // predicate that grew (into `node_graph`, tagged `round`) and, when
  // segments are enabled, builds the round's columnar segments. Must be
  // called with non-decreasing limits, in id order, after the facts exist.
  void SealRound(FactId limit, NodeGraph* node_graph, int64_t round);

  // Highest id below which facts are covered by sealed segments. The merge
  // path only applies to windows within this limit.
  FactId sealed_limit() const { return sealed_limit_; }

  // Segment chain of a predicate, or nullptr when the predicate has no
  // sealed fact (or segments are disabled).
  const SegmentChain* ChainOf(Symbol predicate) const {
    if (predicate < 0 || predicate >= static_cast<Symbol>(chains_.size())) {
      return nullptr;
    }
    return &chains_[static_cast<size_t>(predicate)];
  }

  const PositionIndex& position_index() const { return index_; }

  // Hands the position index over (ChaseResult::position_index) and leaves
  // this store without one: call only once the run is done with the store.
  PositionIndex TakePositionIndex() { return std::move(index_); }

  // Content-based footprint of the position index plus the segment chains
  // (common/memory.h accounting).
  int64_t approx_bytes() const {
    int64_t total = index_.approx_bytes();
    for (const SegmentChain& chain : chains_) total += chain.approx_bytes();
    return total;
  }

  void set_position_key_mask_for_testing(uint64_t mask) {
    index_.set_position_key_mask_for_testing(mask);
  }

 private:
  const ChaseGraph* graph_;
  PositionIndex index_;
  std::vector<FactId> empty_;

  bool segments_enabled_ = false;
  std::vector<bool> segment_predicates_;  // empty: build for every predicate
  int64_t segment_hot_min_facts_ = 0;  // <= 0: build on first contact
  FactId sealed_limit_ = 0;
  std::vector<SegmentChain> chains_;  // indexed by predicate symbol
};

// Returns true and extends `binding` iff `fact` matches `atom` under the
// current (partial) binding: constants must equal, variables unify.
bool MatchAtom(const Atom& atom, const Fact& fact, Binding* binding);

}  // namespace templex

#endif  // TEMPLEX_ENGINE_FACT_STORE_H_
