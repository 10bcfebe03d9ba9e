#include "engine/rule_plan.h"

#include <algorithm>

namespace templex {

namespace {

bool VectorContains(const std::vector<std::string>& names,
                    const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

int SlotOf(std::vector<std::string>* slot_names, const std::string& name) {
  for (size_t i = 0; i < slot_names->size(); ++i) {
    if ((*slot_names)[i] == name) return static_cast<int>(i);
  }
  slot_names->push_back(name);
  return static_cast<int>(slot_names->size() - 1);
}

// Appends `expr`'s subtree to `out` (root first) and returns its node
// index. Variables resolve against `names`; validation guarantees every
// one is bound in a chase (an unknown one compiles to slot -1 and fails
// evaluation).
int CompileExpr(const Expr& expr, const std::vector<std::string>& names,
                SlotExpr* out) {
  const int index = static_cast<int>(out->nodes.size());
  out->nodes.emplace_back();
  out->nodes[index].source = &expr;
  if (expr.is_leaf()) {
    if (expr.term().is_constant()) {
      out->nodes[index].is_constant = true;
      out->nodes[index].constant = expr.term().constant_value();
    } else {
      out->nodes[index].slot = FindSlot(names, expr.term().variable_name());
    }
    return index;
  }
  out->nodes[index].op = expr.op();
  const int lhs = CompileExpr(expr.lhs(), names, out);
  const int rhs = CompileExpr(expr.rhs(), names, out);
  out->nodes[index].lhs = lhs;
  out->nodes[index].rhs = rhs;
  return index;
}

std::vector<SlotCondition> CompileConditions(
    const std::vector<const Condition*>& conditions,
    const std::vector<std::string>& names) {
  std::vector<SlotCondition> out;
  out.reserve(conditions.size());
  for (const Condition* c : conditions) {
    out.push_back(CompileSlotCondition(*c, names));
  }
  return out;
}

// A leaf's value in place (no copy); a binary node evaluated into
// *scratch: operands left to right, then the operator.
Result<const Value*> EvalNode(const SlotExpr& expr, int index,
                              const Value* slots, Value* scratch) {
  const SlotExpr::Node& node = expr.nodes[static_cast<size_t>(index)];
  if (node.lhs < 0) {
    if (node.is_constant) return &node.constant;
    if (node.slot < 0) {
      return Status::InvalidArgument("unbound variable in expression: " +
                                     node.source->term().variable_name());
    }
    return &slots[node.slot];
  }
  Value lhs_scratch;
  Result<const Value*> lhs = EvalNode(expr, node.lhs, slots, &lhs_scratch);
  if (!lhs.ok()) return lhs.status();
  Value rhs_scratch;
  Result<const Value*> rhs = EvalNode(expr, node.rhs, slots, &rhs_scratch);
  if (!rhs.ok()) return rhs.status();
  Result<Value> value = ApplyArithmetic(*node.source, *lhs.value(),
                                        *rhs.value());
  if (!value.ok()) return value.status();
  *scratch = std::move(value).value();
  return static_cast<const Value*>(scratch);
}

// The apply half of Compile: lays out the binding slots after the body
// slots and compiles everything the chase evaluates between a body match
// and the stored node onto them. Negated predicates are only looked up
// (see ResolveNegatedPredicates).
void CompileApply(RulePlan* plan, const SymbolTable& symbols) {
  const Rule& rule = *plan->rule;
  std::vector<std::string>& names = plan->binding_names;
  names = plan->slot_names;
  // Negated atoms only test body-bound variables (validation), so they
  // compile against the body slots with every position probeable.
  plan->negative_body.clear();
  for (const Atom& atom : rule.negative_body) {
    AtomPlan ap;
    ap.arity = atom.arity();
    for (const Term& term : atom.terms) {
      TermPlan tp;
      if (term.is_constant()) {
        tp.is_constant = true;
        tp.constant = term.constant_value();
      } else {
        tp.slot = FindSlot(plan->slot_names, term.variable_name());
      }
      tp.bound_at_entry = tp.is_constant || tp.slot >= 0;
      ap.terms.push_back(std::move(tp));
    }
    plan->negative_body.push_back(std::move(ap));
  }
  ResolveNegatedPredicates(plan, symbols);
  // Assignments evaluate in order; each sees the variables before it.
  plan->assignments.clear();
  for (const Assignment& a : rule.assignments) {
    SlotAssignment sa;
    sa.expr = CompileSlotExpr(*a.expr, names);
    sa.slot = SlotOf(&names, a.variable);
    plan->assignments.push_back(std::move(sa));
  }
  plan->num_eval_slots = static_cast<int>(names.size());
  plan->pre_condition_plans = CompileConditions(plan->pre_conditions, names);
  plan->group_slots.clear();
  plan->contributor_slots.clear();
  plan->input_slot = -1;
  plan->result_slot = -1;
  if (rule.has_aggregate()) {
    for (const std::string& v : plan->group_vars) {
      plan->group_slots.push_back(FindSlot(names, v));
    }
    for (const std::string& v : plan->contributor_vars) {
      plan->contributor_slots.push_back(FindSlot(names, v));
    }
    plan->input_slot = FindSlot(names, rule.aggregate->input_variable);
    plan->result_slot = SlotOf(&names, rule.aggregate->result_variable);
  }
  plan->post_condition_plans =
      CompileConditions(plan->post_conditions, names);
  plan->head = AtomPlan{};
  if (rule.is_constraint) return;
  plan->head.predicate = plan->head_predicate;
  plan->head.arity = rule.head.arity();
  const int bound_slots = static_cast<int>(names.size());
  for (const Term& term : rule.head.terms) {
    TermPlan tp;
    if (term.is_constant()) {
      tp.is_constant = true;
      tp.constant = term.constant_value();
      tp.bound_at_entry = true;
    } else {
      const size_t slots_before = names.size();
      tp.slot = SlotOf(&names, term.variable_name());
      tp.binds = names.size() > slots_before;  // existential, first seen
      tp.bound_at_entry = tp.slot < bound_slots;
    }
    plan->head.terms.push_back(std::move(tp));
  }
}

// Shared by both CompileMatchPlan overloads; `resolve` maps a predicate
// name to its symbol (interning or lookup-only).
template <typename Resolve>
void Compile(RulePlan* plan, const SymbolTable& symbols, Resolve&& resolve) {
  plan->body.clear();
  plan->slot_names.clear();
  // Slots whose variable first occurred in an atom BEFORE the current one.
  // bound_at_entry must not see slots introduced by the current atom's own
  // earlier positions: those values exist only per candidate fact.
  std::vector<bool> bound_by_earlier_atoms;
  for (const Atom& atom : plan->rule->body) {
    AtomPlan ap;
    ap.predicate = resolve(atom.predicate);
    ap.arity = atom.arity();
    ap.terms.reserve(atom.terms.size());
    for (const Term& term : atom.terms) {
      TermPlan tp;
      if (term.is_constant()) {
        tp.is_constant = true;
        tp.constant = term.constant_value();
        tp.bound_at_entry = true;
      } else {
        const size_t slots_before = plan->slot_names.size();
        tp.slot = SlotOf(&plan->slot_names, term.variable_name());
        tp.binds = plan->slot_names.size() > slots_before;  // fresh slot
        tp.bound_at_entry =
            tp.slot < static_cast<int>(bound_by_earlier_atoms.size()) &&
            bound_by_earlier_atoms[tp.slot];
      }
      ap.terms.push_back(std::move(tp));
    }
    bound_by_earlier_atoms.resize(plan->slot_names.size(), true);
    plan->body.push_back(std::move(ap));
  }
  plan->head_predicate = plan->rule->is_constraint
                             ? kInvalidSymbol
                             : resolve(plan->rule->head.predicate);
  CompileApply(plan, symbols);
  plan->compiled = true;
}

}  // namespace

int FindSlot(const std::vector<std::string>& names, const std::string& name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

SlotExpr CompileSlotExpr(const Expr& expr,
                         const std::vector<std::string>& names) {
  SlotExpr out;
  CompileExpr(expr, names, &out);
  return out;
}

SlotCondition CompileSlotCondition(const Condition& condition,
                                   const std::vector<std::string>& names) {
  SlotCondition out;
  out.lhs = CompileSlotExpr(*condition.lhs, names);
  out.rhs = CompileSlotExpr(*condition.rhs, names);
  out.source = &condition;
  return out;
}

RulePlan MakeRulePlan(const Rule& rule, int index) {
  RulePlan plan;
  plan.rule = &rule;
  plan.index = index;
  plan.pre_conditions = rule.PreAggregateConditions();
  plan.post_conditions = rule.PostAggregateConditions();
  plan.existential_vars = rule.ExistentialVariableNames();
  if (rule.has_aggregate()) {
    const Aggregate& agg = *rule.aggregate;
    // Group key: head variables plus post-condition variables, minus the
    // aggregate result and existential variables.
    auto add_group_var = [&plan, &agg](const std::string& v) {
      if (v == agg.result_variable) return;
      if (VectorContains(plan.existential_vars, v)) return;
      if (!VectorContains(plan.group_vars, v)) plan.group_vars.push_back(v);
    };
    for (const std::string& v : rule.HeadVariableNames()) add_group_var(v);
    for (const Condition* c : plan.post_conditions) {
      for (const std::string& v : c->VariableNames()) add_group_var(v);
    }
    plan.explicit_contributor_keys = !agg.contributor_keys.empty();
    if (!plan.explicit_contributor_keys) {
      for (const std::string& v : rule.AllBoundVariableNames()) {
        if (v == agg.result_variable) continue;
        if (!VectorContains(plan.group_vars, v)) {
          plan.contributor_vars.push_back(v);
        }
      }
    } else {
      plan.contributor_vars = agg.contributor_keys;
    }
  }
  return plan;
}

Result<Value> EvalSlotExpr(const SlotExpr& expr, const Value* slots) {
  Value scratch;
  Result<const Value*> value = EvalNode(expr, 0, slots, &scratch);
  if (!value.ok()) return value.status();
  return *value.value();
}

Result<bool> EvalSlotCondition(const SlotCondition& condition,
                               const Value* slots) {
  Value lhs_scratch;
  Result<const Value*> l = EvalNode(condition.lhs, 0, slots, &lhs_scratch);
  if (!l.ok()) return l.status();
  Value rhs_scratch;
  Result<const Value*> r = EvalNode(condition.rhs, 0, slots, &rhs_scratch);
  if (!r.ok()) return r.status();
  return ApplyComparison(*condition.source, *l.value(), *r.value());
}

void CompileMatchPlan(RulePlan* plan, SymbolTable* symbols) {
  Compile(plan, *symbols, [symbols](const std::string& name) {
    return symbols->Intern(name);
  });
}

void CompileMatchPlan(RulePlan* plan, const SymbolTable& symbols) {
  Compile(plan, symbols, [&symbols](const std::string& name) {
    return symbols.Lookup(name);
  });
}

std::vector<RulePlan> CompileProgramPlans(const Program& program) {
  const SymbolTable no_symbols;
  std::vector<RulePlan> plans;
  plans.reserve(program.rules().size());
  for (size_t i = 0; i < program.rules().size(); ++i) {
    plans.push_back(MakeRulePlan(program.rules()[i], static_cast<int>(i)));
    CompileMatchPlan(&plans.back(), no_symbols);
  }
  return plans;
}

void ResolveNegatedPredicates(RulePlan* plan, const SymbolTable& symbols) {
  for (size_t i = 0; i < plan->negative_body.size(); ++i) {
    plan->negative_body[i].predicate =
        symbols.Lookup(plan->rule->negative_body[i].predicate);
  }
}

}  // namespace templex
