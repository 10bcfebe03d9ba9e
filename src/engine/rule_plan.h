#ifndef TEMPLEX_ENGINE_RULE_PLAN_H_
#define TEMPLEX_ENGINE_RULE_PLAN_H_

#include <string>
#include <vector>

#include "datalog/rule.h"
#include "datalog/symbol.h"

namespace templex {

namespace obs {
class Counter;  // obs/metrics.h
}

// Compiled description of one atom position: what the match enumerator
// must do with a candidate fact's argument there, with no string in sight.
struct TermPlan {
  // is_constant: the argument must equal `constant`. Otherwise the argument
  // is checked against variable slot `slot` when the slot is bound, or
  // bound into it on its first occurrence along the current match path.
  bool is_constant = false;
  Value constant;
  int slot = -1;
  // True iff this position is the variable's first occurrence across the
  // whole body. Atom order is fixed and positions scan left to right, so
  // whether a slot is bound when the enumerator reaches a position is a
  // compile-time fact: binds == write the slot, !binds == compare against
  // it. No runtime bound flags, no undo trail — a failed candidate's stale
  // writes are dead because only a `binds` position ever writes a slot and
  // every read happens at a strictly later position.
  bool binds = false;
  // True when this position's value is known the moment the enumerator
  // ENTERS the atom: a constant, or a variable slot first bound by an
  // earlier body atom. Positions bound by an earlier position of the same
  // atom do not qualify — their value only materializes per candidate,
  // too late to drive a position-index probe.
  bool bound_at_entry = false;
};

// Compiled body atom: interned predicate plus per-position term plans.
// kInvalidSymbol means the predicate was unknown to the table at compile
// time and no stored fact can carry it — the atom matches nothing.
struct AtomPlan {
  Symbol predicate = kInvalidSymbol;
  int arity = 0;
  std::vector<TermPlan> terms;
};

// Precomputed per-rule evaluation plan, built once per chase run: the
// logical split of conditions around the aggregate, the aggregation keys,
// the existential head variables, per-rule metric instruments — and, after
// CompileMatchPlan, the slot-indexed match program the enumerator executes
// instead of walking Atom/Term/Binding strings.
struct RulePlan {
  const Rule* rule = nullptr;
  int index = 0;

  std::vector<const Condition*> pre_conditions;
  std::vector<const Condition*> post_conditions;

  // Aggregation plan (set iff rule->has_aggregate()).
  std::vector<std::string> group_vars;
  std::vector<std::string> contributor_vars;  // residual (implicit) key
  bool explicit_contributor_keys = false;

  std::vector<std::string> existential_vars;

  // Per-rule instruments, resolved once per run; null when the run has no
  // MetricsRegistry attached (the hot loop then pays one pointer test).
  obs::Counter* matches_counter = nullptr;     // body homomorphisms
  obs::Counter* firings_counter = nullptr;     // head emissions attempted
  obs::Counter* duplicates_counter = nullptr;  // emissions already present

  // Compiled match plan (CompileMatchPlan). Body variables map to dense
  // slots in first-occurrence order across the body atoms — exactly the
  // order MatchAtom's Bind() appended them, so a Binding materialized from
  // the slots is byte-identical to the one the string-keyed matcher built.
  std::vector<AtomPlan> body;
  std::vector<std::string> slot_names;  // slot -> variable name
  Symbol head_predicate = kInvalidSymbol;
  bool compiled = false;

  int num_slots() const { return static_cast<int>(slot_names.size()); }
};

// Builds the logical plan — everything derivable from the rule alone.
RulePlan MakeRulePlan(const Rule& rule, int index);

// Compiles the match plan against a symbol table. The mutable overload
// interns the rule's body and head predicates (the chase compiles each
// rule once per run against its graph's table, so predicates referenced
// before any fact of theirs exists still get a symbol and a live index
// slot). The const overload only looks predicates up: an unknown predicate
// compiles to kInvalidSymbol and matches nothing, which is sound when
// enumerating a graph whose fact set below the window limit is frozen.
void CompileMatchPlan(RulePlan* plan, SymbolTable* symbols);
void CompileMatchPlan(RulePlan* plan, const SymbolTable& symbols);

}  // namespace templex

#endif  // TEMPLEX_ENGINE_RULE_PLAN_H_
