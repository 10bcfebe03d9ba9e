#include "engine/fact_store.h"

#include <algorithm>

namespace templex {

void FactStore::SealRound(FactId limit, NodeGraph* node_graph, int64_t round) {
  if (limit <= sealed_limit_) return;
  const int num_symbols = graph_->symbols().size();
  if (static_cast<int>(chains_.size()) < num_symbols) {
    chains_.resize(static_cast<size_t>(num_symbols));
  }
  for (Symbol predicate = 0; predicate < num_symbols; ++predicate) {
    const std::vector<FactId>& ids = graph_->FactsOf(predicate);
    auto first = std::lower_bound(ids.begin(), ids.end(), sealed_limit_);
    auto last = std::lower_bound(first, ids.end(), limit);
    if (first == last) continue;  // predicate gained nothing this round
    if (node_graph != nullptr) {
      node_graph->AddSegmentNode(predicate, round, *first, *(last - 1) + 1);
    }
    if (!segments_enabled_) continue;
    if (!segment_predicates_.empty() &&
        (static_cast<size_t>(predicate) >= segment_predicates_.size() ||
         !segment_predicates_[static_cast<size_t>(predicate)])) {
      continue;  // never consulted by the matcher: skip the columnar copy
    }
    SegmentChain& chain = chains_[static_cast<size_t>(predicate)];
    if (!chain.regular()) continue;
    // Sealing heuristic: an unbuilt chain is only started once the
    // predicate proves hot (>= segment_hot_min_facts_ facts below the seal
    // limit). The first build backfills from the predicate's first fact so
    // the chain covers [0, limit) — ComputeAtomJoins assumes a present
    // chain spans the whole sealed window. Hotness is monotone in the
    // limit, so an uninterrupted run and a resumed one (whose first seal
    // covers the whole restored base at once) flip the same predicates at
    // the same limits.
    auto seg_first = first;
    if (chain.segments().empty() && chain.arity() < 0) {
      const int64_t facts_below_limit =
          static_cast<int64_t>(last - ids.begin());
      if (segment_hot_min_facts_ > 0 &&
          facts_below_limit < segment_hot_min_facts_) {
        continue;  // cold: stays on the probe path, no columnar copy
      }
      seg_first = ids.begin();  // backfill the whole sealed window
    }
    // One columnar segment for this predicate's round delta (or its entire
    // backfill window on the first build). A predicate observed at more
    // than one arity has no rectangular layout: mark the chain irregular so
    // the matcher falls back to index probing.
    const int arity = graph_->node(*seg_first).fact.arity();
    if (chain.arity() >= 0 && chain.arity() != arity) {
      chain.MarkIrregular();
      continue;
    }
    std::vector<FactId> seg_ids;
    seg_ids.reserve(static_cast<size_t>(last - seg_first));
    std::vector<std::vector<Value>> columns(static_cast<size_t>(arity));
    for (auto& col : columns) {
      col.reserve(static_cast<size_t>(last - seg_first));
    }
    bool mixed_arity = false;
    for (auto it = seg_first; it != last; ++it) {
      const Fact& fact = graph_->node(*it).fact;
      if (fact.arity() != arity) {
        mixed_arity = true;
        break;
      }
      seg_ids.push_back(*it);
      for (int pos = 0; pos < arity; ++pos) {
        columns[static_cast<size_t>(pos)].push_back(fact.args[pos]);
      }
    }
    if (mixed_arity) {
      chain.MarkIrregular();
      continue;
    }
    chain.Append(DeltaSegment(predicate, arity, std::move(seg_ids),
                              std::move(columns)));
  }
  sealed_limit_ = limit;
}

const std::vector<FactId>& FactStore::CandidatesFor(
    const Atom& atom, const Binding& binding) const {
  const Symbol predicate = graph_->symbols().Lookup(atom.predicate);
  if (predicate == kInvalidSymbol) return empty_;  // no fact of the predicate
  const std::vector<FactId>* best = nullptr;
  for (int pos = 0; pos < atom.arity(); ++pos) {
    const Term& t = atom.terms[pos];
    Value bound_value;
    if (t.is_constant()) {
      bound_value = t.constant_value();
    } else {
      std::optional<Value> v = binding.Get(t.variable_name());
      if (!v.has_value()) continue;
      bound_value = *v;
    }
    const std::vector<FactId>* ids = index_.Find(predicate, pos, bound_value);
    if (ids == nullptr) return empty_;  // no fact can match
    if (best == nullptr || ids->size() < best->size()) best = ids;
  }
  if (best != nullptr) return *best;
  return graph_->FactsOf(predicate);
}

const std::vector<FactId>& FactStore::CandidatesFor(
    const AtomPlan& atom, const Value* slots) const {
  const std::vector<FactId>* best = nullptr;
  const int arity = atom.arity;
  for (int pos = 0; pos < arity; ++pos) {
    const TermPlan& t = atom.terms[pos];
    // bound_at_entry is the static answer to "is this slot readable when
    // the enumerator probes this atom": constants always, variables iff an
    // earlier body atom first bound them.
    if (!t.bound_at_entry) continue;
    const Value* value = t.is_constant ? &t.constant : &slots[t.slot];
    const std::vector<FactId>* ids = index_.Find(atom.predicate, pos, *value);
    if (ids == nullptr) return empty_;  // no fact can match
    if (best == nullptr || ids->size() < best->size()) best = ids;
  }
  if (best != nullptr) return *best;
  return graph_->FactsOf(atom.predicate);
}

bool MatchAtom(const Atom& atom, const Fact& fact, Binding* binding) {
  if (atom.predicate != fact.predicate || atom.arity() != fact.arity()) {
    return false;
  }
  for (int pos = 0; pos < atom.arity(); ++pos) {
    const Term& t = atom.terms[pos];
    if (t.is_constant()) {
      if (!(t.constant_value() == fact.args[pos])) return false;
    } else if (!binding->Bind(t.variable_name(), fact.args[pos])) {
      return false;
    }
  }
  return true;
}

}  // namespace templex
