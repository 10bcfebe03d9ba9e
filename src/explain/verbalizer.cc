#include "explain/verbalizer.h"

#include <algorithm>

#include "common/string_util.h"

namespace templex {

namespace {

// Extracts the <token> names occurring in `text`, in order of first
// occurrence.
std::vector<std::string> ExtractTokenNames(const std::string& text) {
  std::vector<std::string> names;
  size_t pos = 0;
  while ((pos = text.find('<', pos)) != std::string::npos) {
    size_t end = text.find('>', pos);
    if (end == std::string::npos) break;
    std::string name = text.substr(pos + 1, end - pos - 1);
    if (!name.empty() &&
        std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
    pos = end + 1;
  }
  return names;
}

// Verbalizes an arithmetic expression symbolically: variables become
// <tokens>, constants are formatted with `style`.
std::string ExprToText(const Expr& expr, NumberStyle style) {
  if (expr.is_leaf()) {
    const Term& term = expr.term();
    if (term.is_variable()) return "<" + term.variable_name() + ">";
    return DomainGlossary::FormatValue(term.constant_value(), style);
  }
  // Binary node: recover operands via ToString-free recursion.
  std::string op_text;
  switch (expr.op()) {
    case Expr::Op::kAdd:
      op_text = " plus ";
      break;
    case Expr::Op::kSub:
      op_text = " minus ";
      break;
    case Expr::Op::kMul:
      op_text = " times ";
      break;
    case Expr::Op::kDiv:
      op_text = " divided by ";
      break;
  }
  return ExprToText(expr.lhs(), style) + op_text + ExprToText(expr.rhs(), style);
}

// `var`'s style in `styles`; plain when it has none.
NumberStyle StyleOf(const std::map<std::string, NumberStyle>& styles,
                    const std::string& var) {
  auto it = styles.find(var);
  return it == styles.end() ? NumberStyle::kPlain : it->second;
}

// The style a condition side is formatted in: its own when it is a bare
// variable, else that of a bare-variable other side — so "s > 0.5" over
// percent-styled s reads "... is higher than 50%".
NumberStyle SideStyle(const std::map<std::string, NumberStyle>& styles,
                      const Expr& side, const Expr& other) {
  if (side.is_variable_leaf()) {
    return StyleOf(styles, side.term().variable_name());
  }
  if (other.is_variable_leaf()) {
    return StyleOf(styles, other.term().variable_name());
  }
  return NumberStyle::kPlain;
}

}  // namespace

std::string ComparatorToText(Comparator cmp) {
  switch (cmp) {
    case Comparator::kLt:
      return "is lower than";
    case Comparator::kLe:
      return "is at most";
    case Comparator::kGt:
      return "is higher than";
    case Comparator::kGe:
      return "is at least";
    case Comparator::kEq:
      return "is equal to";
    case Comparator::kNe:
      return "is different from";
  }
  return "compares to";
}

std::string AggregateFunctionToText(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kSum:
      return "sum";
    case AggregateFunction::kProd:
      return "product";
    case AggregateFunction::kMin:
      return "minimum";
    case AggregateFunction::kMax:
      return "maximum";
    case AggregateFunction::kCount:
      return "count";
  }
  return "aggregate";
}

Verbalizer::Verbalizer(const Program* program, const DomainGlossary* glossary)
    : glossary_(glossary),
      plans_(CompileProgramPlans(*program)) {
  conditions_.reserve(plans_.size());
  for (const RulePlan& plan : plans_) {
    std::vector<SlotCondition>& compiled = conditions_.emplace_back();
    for (const Condition& condition : plan.rule->conditions) {
      compiled.push_back(CompileSlotCondition(condition, plan.binding_names));
    }
  }
}

std::map<std::string, NumberStyle> Verbalizer::RuleVariableStyles(
    const Rule& rule) const {
  std::map<std::string, NumberStyle> styles;
  auto merge_atom = [this, &styles](const Atom& atom) {
    for (const auto& [var, style] : glossary_->VariableStyles(atom)) {
      // Prefer a non-plain style when positions disagree.
      if (StyleOf(styles, var) == NumberStyle::kPlain) styles[var] = style;
    }
  };
  for (const Atom& atom : rule.body) merge_atom(atom);
  merge_atom(rule.head);
  // The aggregate result inherits the input variable's style.
  if (rule.has_aggregate()) {
    const std::string& result = rule.aggregate->result_variable;
    if (StyleOf(styles, result) == NumberStyle::kPlain) {
      styles[result] = StyleOf(styles, rule.aggregate->input_variable);
    }
  }
  // Assigned variables inherit the style of the first styled variable in
  // their expression.
  for (const Assignment& a : rule.assignments) {
    if (styles.count(a.variable) > 0) continue;
    NumberStyle style = NumberStyle::kPlain;
    for (const std::string& v : a.expr->VariableNames()) {
      style = StyleOf(styles, v);
      if (style != NumberStyle::kPlain) break;
    }
    styles[a.variable] = style;
  }
  return styles;
}

Result<TemplateSegment> Verbalizer::VerbalizeRule(
    const Rule& rule, bool multi_aggregation) const {
  std::map<std::string, NumberStyle> styles = RuleVariableStyles(rule);
  auto side_text = [&styles](const Expr& expr, const Expr& other) {
    return ExprToText(expr, SideStyle(styles, expr, other));
  };

  std::vector<std::string> clauses;
  for (const Atom& atom : rule.body) {
    Result<std::string> text = glossary_->VerbalizeAtom(atom);
    if (!text.ok()) return text.status();
    clauses.push_back(std::move(text).value());
  }
  for (const Atom& atom : rule.negative_body) {
    Result<std::string> text = glossary_->VerbalizeAtom(atom);
    if (!text.ok()) return text.status();
    clauses.push_back("it is not the case that " + text.value());
  }
  for (const Assignment& a : rule.assignments) {
    clauses.push_back("<" + a.variable + "> is " +
                      ExprToText(*a.expr, StyleOf(styles, a.variable)));
  }
  if (rule.has_aggregate() && multi_aggregation) {
    const Aggregate& agg = *rule.aggregate;
    clauses.push_back("with <" + agg.result_variable + "> given by the " +
                      AggregateFunctionToText(agg.function) + " of <" +
                      agg.input_variable + ">");
  }
  for (const Condition& c : rule.conditions) {
    clauses.push_back(side_text(*c.lhs, *c.rhs) + " " +
                      ComparatorToText(c.cmp) + " " +
                      side_text(*c.rhs, *c.lhs));
  }
  Result<std::string> head_text = glossary_->VerbalizeAtom(rule.head);
  if (!head_text.ok()) return head_text.status();

  TemplateSegment segment;
  segment.rule_label = rule.label;
  segment.multi_aggregation = rule.has_aggregate() && multi_aggregation;
  if (segment.multi_aggregation) {
    segment.aggregate_input_variable = rule.aggregate->input_variable;
  }
  segment.text = "Since " + Join(clauses, ", and ") + ", then " +
                 head_text.value() + ".";
  for (const std::string& name : ExtractTokenNames(segment.text)) {
    segment.tokens.push_back(TemplateToken{name, StyleOf(styles, name)});
  }
  return segment;
}

Result<std::string> Verbalizer::VerbalizeStep(
    const ChaseGraph& graph, FactId step,
    const Derivation& derivation) const {
  const ChaseNode& node = graph.node(step);
  if (derivation.is_extensional()) {
    return Status::InvalidArgument("cannot verbalize an extensional fact as "
                                   "a chase step: " +
                                   node.fact.ToString());
  }
  const auto rule_index = static_cast<size_t>(derivation.rule_index);
  if (rule_index >= plans_.size()) {
    return Status::Internal("rule not found: " +
                            graph.RuleLabel(derivation.rule_index) +
                            " (index " +
                            std::to_string(derivation.rule_index) + ")");
  }
  const RulePlan& plan = plans_[rule_index];
  const Rule* rule = plan.rule;
  // A slot's value, or Null past the derivation's values.
  auto value_at = [&derivation](int slot) {
    return slot >= 0 && static_cast<size_t>(slot) < derivation.values.size()
               ? derivation.values[static_cast<size_t>(slot)]
               : Value::Null();
  };
  std::map<std::string, NumberStyle> styles = RuleVariableStyles(*rule);
  std::vector<std::string> clauses;
  for (FactId parent : derivation.parents) {
    Result<std::string> text =
        glossary_->VerbalizeFact(graph.node(parent).fact);
    if (!text.ok()) return text.status();
    clauses.push_back(std::move(text).value());
  }
  // Ground negated atoms ("and it is not the case that X owns ..."): all
  // their variables are bound by the positive body.
  for (size_t i = 0; i < plan.negative_body.size(); ++i) {
    Fact absent;
    absent.predicate = rule->negative_body[i].predicate;
    for (const TermPlan& term : plan.negative_body[i].terms) {
      absent.args.push_back(term.is_constant ? term.constant
                                             : value_at(term.slot));
    }
    Result<std::string> text = glossary_->VerbalizeFact(absent);
    if (!text.ok()) return text.status();
    clauses.push_back("it is not the case that " + text.value());
  }
  // Multi-contributor aggregations get the explicit "given by the sum of"
  // clause; single-contributor ones are explained as plain rules.
  if (rule->has_aggregate() && derivation.contributions.size() > 1) {
    NumberStyle input_style =
        StyleOf(styles, rule->aggregate->input_variable);
    std::vector<std::string> inputs;
    for (const AggregateContribution& c : derivation.contributions) {
      inputs.push_back(DomainGlossary::FormatValue(c.input, input_style));
    }
    clauses.push_back(
        "with " +
        DomainGlossary::FormatValue(value_at(plan.result_slot),
                                    input_style) +
        " given by the " + AggregateFunctionToText(rule->aggregate->function) +
        " of " + JoinWithConjunction(inputs, ", ", " and "));
  }
  // Ground condition clauses ("and 83% is higher than 50%") — the paper's
  // deterministic explanations spell them out, see Figure 15.
  // A side that does not evaluate stays symbolic. Values short of the
  // rule's slots (a hand-built derivation) leave every side symbolic.
  const bool all_slots =
      derivation.values.size() == plan.binding_names.size();
  for (const SlotCondition& condition : conditions_[rule_index]) {
    auto ground_side = [&derivation, &styles, all_slots](
                           const SlotExpr& compiled, const Expr& side,
                           const Expr& other) -> std::string {
      if (!all_slots) return side.ToString();
      Result<Value> value = EvalSlotExpr(compiled, derivation.values.data());
      if (!value.ok()) return side.ToString();
      return DomainGlossary::FormatValue(value.value(),
                                         SideStyle(styles, side, other));
    };
    const Condition& source = *condition.source;
    clauses.push_back(
        ground_side(condition.lhs, *source.lhs, *source.rhs) + " " +
        ComparatorToText(source.cmp) + " " +
        ground_side(condition.rhs, *source.rhs, *source.lhs));
  }
  Result<std::string> head_text = glossary_->VerbalizeFact(node.fact);
  if (!head_text.ok()) return head_text.status();
  return "Since " + Join(clauses, ", and ") + ", then " + head_text.value() +
         ".";
}

Result<std::string> Verbalizer::VerbalizeProof(const Proof& proof) const {
  std::string text;
  for (FactId step : proof.steps()) {
    Result<std::string> sentence =
        VerbalizeStep(proof.graph(), step, proof.derivation(step));
    if (!sentence.ok()) return sentence.status();
    if (!text.empty()) text += " ";
    text += sentence.value();
  }
  return text;
}

}  // namespace templex
