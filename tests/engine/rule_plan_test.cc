#include "engine/rule_plan.h"

#include <gtest/gtest.h>

#include <map>

#include "datalog/parser.h"

namespace templex {
namespace {

Rule Parse(const std::string& text) {
  Result<Rule> rule = ParseRule(text);
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  return std::move(rule).value();
}

// Slots must be assigned in first-occurrence order across the body atoms:
// stored derivations, checkpoints and explanations depend on the order.
TEST(RulePlanTest, SlotsFollowFirstOccurrenceOrder) {
  Rule rule = Parse("Own(a, b, s1), Own(b, c, s2) -> Indirect(a, c).");
  RulePlan plan = MakeRulePlan(rule, 0);
  SymbolTable symbols;
  CompileMatchPlan(&plan, &symbols);

  ASSERT_TRUE(plan.compiled);
  ASSERT_EQ(plan.slot_names.size(), 5u);
  EXPECT_EQ(plan.slot_names[0], "a");
  EXPECT_EQ(plan.slot_names[1], "b");
  EXPECT_EQ(plan.slot_names[2], "s1");
  EXPECT_EQ(plan.slot_names[3], "c");
  EXPECT_EQ(plan.slot_names[4], "s2");

  // The join variable `b` maps to one slot in both atoms.
  ASSERT_EQ(plan.body.size(), 2u);
  EXPECT_EQ(plan.body[0].terms[1].slot, plan.body[1].terms[0].slot);
}

TEST(RulePlanTest, ConstantsCompileToConstantChecks) {
  Rule rule = Parse("Risk(c, e, \"long\") -> Flagged(c).");
  RulePlan plan = MakeRulePlan(rule, 0);
  SymbolTable symbols;
  CompileMatchPlan(&plan, &symbols);

  ASSERT_EQ(plan.body.size(), 1u);
  const AtomPlan& atom = plan.body[0];
  EXPECT_EQ(atom.arity, 3);
  EXPECT_FALSE(atom.terms[0].is_constant);
  EXPECT_FALSE(atom.terms[1].is_constant);
  ASSERT_TRUE(atom.terms[2].is_constant);
  EXPECT_EQ(atom.terms[2].constant, Value::String("long"));
  EXPECT_EQ(atom.terms[2].slot, -1);
}

TEST(RulePlanTest, MutableCompileInternsPredicates) {
  Rule rule = Parse("Own(x, y, s) -> Control(x, y).");
  RulePlan plan = MakeRulePlan(rule, 0);
  SymbolTable symbols;
  CompileMatchPlan(&plan, &symbols);

  EXPECT_EQ(plan.body[0].predicate, symbols.Lookup("Own"));
  EXPECT_NE(plan.body[0].predicate, kInvalidSymbol);
  EXPECT_EQ(plan.head_predicate, symbols.Lookup("Control"));
  EXPECT_NE(plan.head_predicate, kInvalidSymbol);
}

// The const overload only looks predicates up: an unknown predicate
// compiles to kInvalidSymbol (matches nothing), without mutating the table.
TEST(RulePlanTest, ConstCompileLeavesUnknownPredicatesInvalid) {
  Rule rule = Parse("Own(x, y, s) -> Control(x, y).");
  RulePlan plan = MakeRulePlan(rule, 0);
  SymbolTable symbols;
  symbols.Intern("Own");
  const SymbolTable& frozen = symbols;
  CompileMatchPlan(&plan, frozen);

  EXPECT_TRUE(plan.compiled);
  EXPECT_EQ(plan.body[0].predicate, symbols.Lookup("Own"));
  EXPECT_EQ(plan.head_predicate, kInvalidSymbol);
  EXPECT_EQ(symbols.Lookup("Control"), kInvalidSymbol);
}

TEST(RulePlanTest, LogicalPlanSplitsConditionsAroundAggregate) {
  Rule rule = Parse(
      "Control(x, z), Own(z, y, s), ts = sum(s, [z]), ts > 0.5 "
      "-> Control(x, y).");
  RulePlan plan = MakeRulePlan(rule, 3);
  EXPECT_EQ(plan.index, 3);
  ASSERT_TRUE(plan.rule->has_aggregate());
  EXPECT_TRUE(plan.pre_conditions.empty());
  ASSERT_EQ(plan.post_conditions.size(), 1u);
  ASSERT_EQ(plan.contributor_vars.size(), 1u);
  EXPECT_EQ(plan.contributor_vars[0], "z");
  EXPECT_TRUE(plan.explicit_contributor_keys);
}

// The apply side's slot layout, which every stored derivation's values
// follow: body slots, assignment variables, the aggregate result, then
// existential head variables.
TEST(RulePlanTest, BindingSlotsFollowTheStoredBindingOrder) {
  Rule rule = Parse(
      "IntOwn(x, z, s1), Own(z, y, s2), p = s1 * s2, ts = sum(p), "
      "ts >= 0.2 -> Linked(x, y, n, ts, n).");
  RulePlan plan = MakeRulePlan(rule, 0);
  SymbolTable symbols;
  CompileMatchPlan(&plan, &symbols);

  const std::vector<std::string> want = {"x",  "z", "s1", "y",
                                         "s2", "p", "ts", "n"};
  EXPECT_EQ(plan.binding_names, want);
  EXPECT_EQ(plan.num_slots(), 5);
  EXPECT_EQ(plan.num_eval_slots, 6);  // body + p
  ASSERT_EQ(plan.assignments.size(), 1u);
  EXPECT_EQ(plan.assignments[0].slot, 5);
  EXPECT_EQ(plan.input_slot, 5);
  EXPECT_EQ(plan.result_slot, 6);
  // Group key: head variables minus the result and the existential n.
  EXPECT_EQ(plan.group_slots, (std::vector<int>{0, 3}));
  // Implicit contributor key: every other bound variable.
  EXPECT_EQ(plan.contributor_slots, (std::vector<int>{1, 2, 4, 5}));
  ASSERT_EQ(plan.head.terms.size(), 5u);
  EXPECT_TRUE(plan.head.terms[0].bound_at_entry);
  EXPECT_TRUE(plan.head.terms[3].bound_at_entry);  // ts
  // n: existential — first occurrence binds, the repeat reads the slot.
  EXPECT_FALSE(plan.head.terms[2].bound_at_entry);
  EXPECT_TRUE(plan.head.terms[2].binds);
  EXPECT_EQ(plan.head.terms[4].slot, 7);
  EXPECT_FALSE(plan.head.terms[4].binds);
}

// A name-keyed reference evaluator of a few lines: variables looked up by
// name in a map, the operator and comparison steps shared with the slot
// evaluator.
using NameBinding = std::map<std::string, Value>;

Result<Value> EvalByName(const Expr& expr, const NameBinding& binding) {
  if (expr.is_leaf()) {
    if (expr.term().is_constant()) return expr.term().constant_value();
    const auto it = binding.find(expr.term().variable_name());
    if (it == binding.end()) {
      return Status::InvalidArgument("unbound variable in expression: " +
                                     expr.term().variable_name());
    }
    return it->second;
  }
  Result<Value> lhs = EvalByName(expr.lhs(), binding);
  if (!lhs.ok()) return lhs.status();
  Result<Value> rhs = EvalByName(expr.rhs(), binding);
  if (!rhs.ok()) return rhs.status();
  return ApplyArithmetic(expr, lhs.value(), rhs.value());
}

Result<bool> EvalByName(const Condition& condition,
                        const NameBinding& binding) {
  Result<Value> lhs = EvalByName(*condition.lhs, binding);
  if (!lhs.ok()) return lhs.status();
  Result<Value> rhs = EvalByName(*condition.rhs, binding);
  if (!rhs.ok()) return rhs.status();
  return ApplyComparison(condition, lhs.value(), rhs.value());
}

// Compiled conditions and expressions agree with the name-keyed reference
// on the binding the slots stand for — results and error texts alike.
TEST(RulePlanTest, SlotConditionsMatchBindingEvaluation) {
  Rule rule = Parse(
      "P(a, b, c), d = (a - b) / c, d > 1, a != c, b < c -> Q(a, d).");
  RulePlan plan = MakeRulePlan(rule, 0);
  SymbolTable symbols;
  CompileMatchPlan(&plan, &symbols);
  ASSERT_EQ(plan.pre_condition_plans.size(), 3u);

  const std::vector<std::vector<Value>> cases = {
      {Value::Int(9), Value::Int(1), Value::Int(2)},
      {Value::Int(1), Value::Int(9), Value::Double(2.0)},
      {Value::Int(3), Value::Int(1), Value::Int(0)},             // / 0
      {Value::String("A"), Value::Int(1), Value::Int(2)},        // non-num
      {Value::Int(2), Value::String("B"), Value::String("C")},
  };
  for (const std::vector<Value>& body : cases) {
    std::vector<Value> slots(plan.num_binding_slots());
    std::copy(body.begin(), body.end(), slots.begin());
    NameBinding binding;
    for (size_t i = 0; i < plan.slot_names.size(); ++i) {
      binding[plan.slot_names[i]] = slots[i];
    }
    Result<Value> want = EvalByName(*rule.assignments[0].expr, binding);
    Result<Value> got = EvalSlotExpr(plan.assignments[0].expr, slots.data());
    ASSERT_EQ(got.ok(), want.ok());
    if (!want.ok()) {
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    EXPECT_EQ(got.value().ToString(), want.value().ToString());
    slots[plan.assignments[0].slot] = want.value();
    binding["d"] = want.value();
    for (size_t i = 0; i < plan.pre_condition_plans.size(); ++i) {
      Result<bool> w = EvalByName(*plan.pre_conditions[i], binding);
      Result<bool> g =
          EvalSlotCondition(plan.pre_condition_plans[i], slots.data());
      ASSERT_EQ(g.ok(), w.ok());
      if (w.ok()) {
        EXPECT_EQ(g.value(), w.value());
      } else {
        EXPECT_EQ(g.status().ToString(), w.status().ToString());
      }
    }
  }
}

}  // namespace
}  // namespace templex
