#ifndef TEMPLEX_ENGINE_MATCHER_H_
#define TEMPLEX_ENGINE_MATCHER_H_

#include <functional>

#include "common/status.h"
#include "datalog/rule.h"
#include "engine/fact_store.h"
#include "engine/rule_plan.h"

namespace templex {

// One homomorphism from a rule body into the database: the variable values
// by slot and the matched facts, in body-atom order.
//
// `slots` holds plan.num_binding_slots() values. The first
// plan.num_slots() are the body variables (RulePlan::slot_names); the rest
// are the callback's scratch for the apply side — assignments, the
// aggregate result, existential nulls — which the enumerator never reads.
// A derivation the chase keeps copies them (Derivation::values).
//
// The BodyMatch handed to an enumeration callback aliases the enumerator's
// scratch state — it is only valid for the duration of the callback; copy
// what outlives it.
struct BodyMatch {
  Value* slots = nullptr;
  std::vector<FactId> facts;
};

// Restricts which fact ids an enumeration may touch. Only facts with
// id < limit exist for the enumeration; optionally one `pivot_atom` is
// further restricted to ids in [pivot_begin, pivot_end) and every atom
// before it to ids < pre_pivot_cap.
//
// The two users:
//  - Semi-naive delta evaluation: pivot_atom = the body position holding a
//    "new" fact, [pivot_begin, pivot_end) = the round's delta
//    [delta_begin, limit), pre_pivot_cap = delta_begin. Iterating the pivot
//    over every body position enumerates exactly the matches touching the
//    delta, without duplicates.
//  - Full evaluation: pivot_atom = 0 with [pivot_begin, pivot_end) =
//    [0, limit); pre_pivot_cap is unused (no atom precedes position 0).
struct MatchWindow {
  FactId limit = 0;
  int pivot_atom = -1;  // -1: every atom ranges over [0, limit)
  FactId pivot_begin = 0;
  FactId pivot_end = 0;
  FactId pre_pivot_cap = 0;
};

// Enumerates every homomorphism from the plan's body atoms into the facts
// of `graph` admitted by `window`, invoking `callback` for each.
// Enumeration order is deterministic (fact-id order per atom).
//
// This is the chase hot path: the plan must be compiled
// (CompileMatchPlan), and candidate unification runs over dense value
// slots — integer predicate compares, slot-indexed loads, no undo trail —
// with no variable name in sight. Slot order is first-occurrence order
// across body atoms (RulePlan::slot_names).
//
// Read-only over `store` and `graph`.
//
// Stops and propagates the first non-OK status returned by the callback.
Status EnumerateMatches(const RulePlan& plan, const FactStore& store,
                        const ChaseGraph& graph, const MatchWindow& window,
                        const std::function<Status(const BodyMatch&)>& callback);

}  // namespace templex

#endif  // TEMPLEX_ENGINE_MATCHER_H_
