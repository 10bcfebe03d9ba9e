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

// Shared by both CompileMatchPlan overloads; `resolve` maps a predicate
// name to its symbol (interning or lookup-only).
template <typename Resolve>
void Compile(RulePlan* plan, Resolve&& resolve) {
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
  plan->compiled = true;
}

}  // namespace

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

void CompileMatchPlan(RulePlan* plan, SymbolTable* symbols) {
  Compile(plan, [symbols](const std::string& name) {
    return symbols->Intern(name);
  });
}

void CompileMatchPlan(RulePlan* plan, const SymbolTable& symbols) {
  Compile(plan, [&symbols](const std::string& name) {
    return symbols.Lookup(name);
  });
}

}  // namespace templex
