#ifndef TEMPLEX_DATALOG_CONDITION_H_
#define TEMPLEX_DATALOG_CONDITION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/term.h"

namespace templex {

// Arithmetic expression over terms: constants, variables, and the binary
// operators + - * / (the "expressions in rule bodies" Vadalog extension).
class Expr {
 public:
  enum class Op { kAdd, kSub, kMul, kDiv };

  static std::unique_ptr<Expr> Constant(Value value);
  static std::unique_ptr<Expr> Variable(std::string name);
  static std::unique_ptr<Expr> Binary(Op op, std::unique_ptr<Expr> lhs,
                                      std::unique_ptr<Expr> rhs);

  // Deep copy.
  std::unique_ptr<Expr> Clone() const;

  // Variable names occurring in the expression, without duplicates.
  std::vector<std::string> VariableNames() const;

  bool is_leaf() const { return !lhs_; }
  bool is_variable_leaf() const { return is_leaf() && term_.is_variable(); }
  const Term& term() const { return term_; }
  Op op() const { return op_; }
  // Operands; only valid for binary (non-leaf) nodes.
  const Expr& lhs() const { return *lhs_; }
  const Expr& rhs() const { return *rhs_; }

  std::string ToString() const;

 private:
  Expr() = default;

  // Leaf payload (constant or variable); unused for binary nodes.
  Term term_ = Term::Constant(Value::Null());
  Op op_ = Op::kAdd;
  std::unique_ptr<Expr> lhs_;
  std::unique_ptr<Expr> rhs_;
};

// Comparison operators of the Vadalog "expressions" extension.
enum class Comparator { kLt, kLe, kGt, kGe, kEq, kNe };

const char* ComparatorToString(Comparator cmp);

// A body condition `lhs <cmp> rhs`, e.g. `s > p1`.
struct Condition {
  std::unique_ptr<Expr> lhs;
  Comparator cmp = Comparator::kEq;
  std::unique_ptr<Expr> rhs;

  Condition() = default;
  Condition(std::unique_ptr<Expr> l, Comparator c, std::unique_ptr<Expr> r)
      : lhs(std::move(l)), cmp(c), rhs(std::move(r)) {}
  Condition(const Condition& other) { *this = other; }
  Condition& operator=(const Condition& other) {
    lhs = other.lhs ? other.lhs->Clone() : nullptr;
    cmp = other.cmp;
    rhs = other.rhs ? other.rhs->Clone() : nullptr;
    return *this;
  }
  Condition(Condition&&) = default;
  Condition& operator=(Condition&&) = default;

  std::vector<std::string> VariableNames() const;

  std::string ToString() const;
};

// The operator and comparison steps of expression evaluation, given
// already-evaluated operands: `node` (a binary node) and `condition`
// supply the operator and name the expression in error messages.
// Arithmetic errors on non-numeric operands and division by zero; a
// numeric comparison compares numerically, and kEq/kNe additionally work
// on strings and booleans. Expressions are evaluated on compiled slots
// (engine/rule_plan.h EvalSlotExpr / EvalSlotCondition).
Result<Value> ApplyArithmetic(const Expr& node, const Value& lhs,
                              const Value& rhs);
Result<bool> ApplyComparison(const Condition& condition, const Value& lhs,
                             const Value& rhs);

// A body assignment `var = expr` (expr is not an aggregate), which binds a
// fresh variable, e.g. `p = s1 * s2` in the close-link application.
struct Assignment {
  std::string variable;
  std::unique_ptr<Expr> expr;

  Assignment() = default;
  Assignment(std::string var, std::unique_ptr<Expr> e)
      : variable(std::move(var)), expr(std::move(e)) {}
  Assignment(const Assignment& other) { *this = other; }
  Assignment& operator=(const Assignment& other) {
    variable = other.variable;
    expr = other.expr ? other.expr->Clone() : nullptr;
    return *this;
  }
  Assignment(Assignment&&) = default;
  Assignment& operator=(Assignment&&) = default;

  std::string ToString() const;
};

}  // namespace templex

#endif  // TEMPLEX_DATALOG_CONDITION_H_
