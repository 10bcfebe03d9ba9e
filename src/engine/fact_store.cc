#include "engine/fact_store.h"

namespace templex {

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
