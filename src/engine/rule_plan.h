#ifndef TEMPLEX_ENGINE_RULE_PLAN_H_
#define TEMPLEX_ENGINE_RULE_PLAN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
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

// An arithmetic expression (datalog/condition.h Expr) with its variables
// resolved to binding slots. Nodes are stored flat, root first; a node
// with lhs < 0 is a leaf (a constant, or the value of `slot`).
struct SlotExpr {
  struct Node {
    bool is_constant = false;
    Value constant;
    int slot = -1;
    Expr::Op op = Expr::Op::kAdd;
    int lhs = -1;
    int rhs = -1;
    const Expr* source = nullptr;  // names the node in error messages
  };
  std::vector<Node> nodes;
};

// A body condition compiled onto slots; `source` supplies the comparator
// and names the condition in errors.
struct SlotCondition {
  SlotExpr lhs;
  SlotExpr rhs;
  const Condition* source = nullptr;
};

// A body assignment compiled onto slots: evaluate `expr`, store it at
// `slot`.
struct SlotAssignment {
  int slot = -1;
  SlotExpr expr;
};

// Slot of variable `name` in `names` (slot -> variable name), or -1.
int FindSlot(const std::vector<std::string>& names, const std::string& name);

// Compiles an expression / condition onto slots: `names` maps slot ->
// variable name, and a variable it does not hold compiles to slot -1,
// which fails evaluation with "unbound variable in expression: <name>".
SlotExpr CompileSlotExpr(const Expr& expr,
                         const std::vector<std::string>& names);
SlotCondition CompileSlotCondition(const Condition& condition,
                                   const std::vector<std::string>& names);

// Evaluates a compiled expression / condition over a slot array: operands
// left to right, then ApplyArithmetic / ApplyComparison, whose messages
// name the failing expression. The one evaluator of rule expressions — the
// chase, the query pass and the explainer all run on it.
Result<Value> EvalSlotExpr(const SlotExpr& expr, const Value* slots);
Result<bool> EvalSlotCondition(const SlotCondition& condition,
                               const Value* slots);

// Precomputed per-rule evaluation plan, built once per chase run: the
// logical split of conditions around the aggregate, the aggregation keys,
// the existential head variables, per-rule metric instruments — and, after
// CompileMatchPlan, the slot-indexed match program the enumerator executes
// instead of walking Atom/Term strings.
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
  // slots in first-occurrence order across the body atoms, left to right.
  std::vector<AtomPlan> body;
  std::vector<std::string> slot_names;  // slot -> variable name
  Symbol head_predicate = kInvalidSymbol;
  bool compiled = false;

  // Compiled apply side (CompileMatchPlan). One slot array carries a match
  // from the body to the head: the body slots above, then the assignment
  // variables, then the aggregate result, then the existential head
  // variables in first-occurrence order. A derivation the graph keeps
  // stores these slots' values (Derivation::values) and the graph's
  // RuleTable stores `binding_names` once per rule; checkpoints and
  // explanations depend on the order.
  std::vector<std::string> binding_names;  // slot -> variable name
  // Slots [0, num_eval_slots) hold a filtered match before its head is
  // applied: body plus assignment variables.
  int num_eval_slots = 0;
  std::vector<AtomPlan> negative_body;  // every variable is a body slot
  std::vector<SlotAssignment> assignments;
  std::vector<SlotCondition> pre_condition_plans;
  std::vector<SlotCondition> post_condition_plans;
  // Aggregation (rule->has_aggregate()): key and value positions; a slot
  // of -1 reads as Null.
  std::vector<int> group_slots;
  std::vector<int> contributor_slots;
  int input_slot = -1;
  int result_slot = -1;
  // The head as an atom over the slot array: constants, bound slots
  // (bound_at_entry) and existential slots (binds on first occurrence).
  // The bound positions drive the existential-reuse probe.
  AtomPlan head;

  int num_slots() const { return static_cast<int>(slot_names.size()); }
  int num_binding_slots() const {
    return static_cast<int>(binding_names.size());
  }
  bool has_existentials() const { return !existential_vars.empty(); }
};

// Builds the logical plan — everything derivable from the rule alone.
RulePlan MakeRulePlan(const Rule& rule, int index);

// Compiles the match and apply plans against a symbol table. The mutable
// overload interns the rule's body and head predicates (the chase compiles
// each rule once per run against its graph's table, so predicates
// referenced before any fact of theirs exists still get a symbol and a
// live index slot). The const overload only looks predicates up: an
// unknown predicate compiles to kInvalidSymbol and matches nothing, which
// is sound when enumerating a graph whose fact set below the window limit
// is frozen.
void CompileMatchPlan(RulePlan* plan, SymbolTable* symbols);
void CompileMatchPlan(RulePlan* plan, const SymbolTable& symbols);

// Compiles every rule of `program`, in rule order, for reading the slot
// values of stored derivations rather than for matching: against an empty
// symbol table, so no predicate resolves. `program` must outlive the plans.
std::vector<RulePlan> CompileProgramPlans(const Program& program);

// Looks the negated atoms' predicates up again. Negation never interns: a
// predicate that only ever occurs negated holds no fact, and interning it
// would add a symbol (and shift later symbol ids) that the chase never
// had. A negated predicate derived by a later rule is interned only when
// that rule compiles, so the chase re-resolves every plan once all of
// them are compiled — by then every predicate that can hold a fact in the
// run has its symbol.
void ResolveNegatedPredicates(RulePlan* plan, const SymbolTable& symbols);

}  // namespace templex

#endif  // TEMPLEX_ENGINE_RULE_PLAN_H_
