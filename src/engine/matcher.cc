#include "engine/matcher.h"

namespace templex {

namespace {

class MatchEnumerator {
 public:
  MatchEnumerator(const RulePlan& plan, const ChaseGraph& graph,
                  const MatchWindow& window,
                  const std::function<Status(const BodyMatch&)>& callback)
      : plan_(plan),
        graph_(graph),
        window_(window),
        callback_(callback),
        slots_(static_cast<size_t>(plan.num_binding_slots())) {}

  Status Run() {
    match_.slots = slots_.data();
    match_.facts.reserve(plan_.body.size());
    return Descend(0);
  }

 private:
  bool AgeAllowed(int atom_index, FactId id) const {
    if (id >= window_.limit) return false;
    if (window_.pivot_atom < 0) return true;
    if (atom_index == window_.pivot_atom) {
      return id >= window_.pivot_begin && id < window_.pivot_end;
    }
    if (atom_index < window_.pivot_atom) return id < window_.pre_pivot_cap;
    return true;
  }

  // Unifies one candidate fact against a compiled atom: constants compare,
  // first-occurrence positions (binds) overwrite their slot, repeats
  // compare against it. Whether a position writes or compares is decided
  // at compile time (TermPlan::binds), so a failed candidate needs no
  // undo: its writes are only readable from positions strictly after the
  // failure point, which the next candidate re-writes before any read.
  bool MatchCandidate(const AtomPlan& ap, const Fact& fact) {
    if (ap.predicate != fact.pred_symbol || ap.arity != fact.arity()) {
      return false;
    }
    for (int pos = 0; pos < ap.arity; ++pos) {
      const TermPlan& t = ap.terms[pos];
      if (t.is_constant) {
        if (!(t.constant == fact.args[pos])) return false;
      } else if (t.binds) {
        slots_[t.slot] = fact.args[pos];
      } else {
        if (!(slots_[t.slot] == fact.args[pos])) return false;
      }
    }
    return true;
  }

  Status Descend(size_t atom_index) {
    if (atom_index == plan_.body.size()) {
      // Every body slot is bound here (each came from some body atom).
      return callback_(match_);
    }
    const AtomPlan& atom = plan_.body[atom_index];
    const std::vector<FactId>& candidates =
        AtomCandidates(graph_, atom, slots_.data());
    // Facts emitted by the enclosing chase round are appended to the index
    // vectors while we iterate: use index-based access over a size snapshot
    // (the appended ids are >= limit and age-filtered out regardless).
    const size_t candidate_count = candidates.size();
    for (size_t i = 0; i < candidate_count; ++i) {
      const FactId id = candidates[i];
      if (!AgeAllowed(static_cast<int>(atom_index), id)) continue;
      if (!MatchCandidate(atom, graph_.node(id).fact)) continue;
      match_.facts.push_back(id);
      TEMPLEX_RETURN_IF_ERROR(Descend(atom_index + 1));
      match_.facts.pop_back();
    }
    return Status::OK();
  }

  const RulePlan& plan_;
  const ChaseGraph& graph_;
  const MatchWindow window_;
  const std::function<Status(const BodyMatch&)>& callback_;

  // Scratch match state: per-slot values. Bound-ness never needs tracking
  // at runtime — it is a compile-time property of each TermPlan (binds /
  // bound_at_entry), so backtracking is free: stale slot values left by a
  // failed candidate are unreachable until re-written. Sized for the
  // plan's binding slots: the tail past the body slots is the callback's
  // scratch (BodyMatch::slots).
  std::vector<Value> slots_;
  BodyMatch match_;
};

}  // namespace

Status EnumerateMatches(
    const RulePlan& plan, const ChaseGraph& graph, const MatchWindow& window,
    const std::function<Status(const BodyMatch&)>& callback) {
  MatchEnumerator enumerator(plan, graph, window, callback);
  return enumerator.Run();
}

bool AnyFactAgrees(const ChaseGraph& graph, const AtomPlan& atom,
                   const Value* slots) {
  for (FactId id : AtomCandidates(graph, atom, slots)) {
    const Fact& fact = graph.node(id).fact;
    // Buckets can merge predicates (PosKey collisions).
    if (fact.pred_symbol != atom.predicate || fact.arity() != atom.arity) {
      continue;
    }
    bool agrees = true;
    for (int pos = 0; pos < atom.arity && agrees; ++pos) {
      const TermPlan& t = atom.terms[pos];
      if (t.is_constant) {
        agrees = t.constant == fact.args[pos];
      } else if (t.bound_at_entry) {
        agrees = slots[t.slot] == fact.args[pos];
      }
    }
    if (agrees) return true;
  }
  return false;
}

}  // namespace templex
