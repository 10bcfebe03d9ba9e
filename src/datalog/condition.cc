#include "datalog/condition.h"

#include <algorithm>

namespace templex {

std::unique_ptr<Expr> Expr::Constant(Value value) {
  auto e = std::unique_ptr<Expr>(new Expr());
  e->term_ = Term::Constant(std::move(value));
  return e;
}

std::unique_ptr<Expr> Expr::Variable(std::string name) {
  auto e = std::unique_ptr<Expr>(new Expr());
  e->term_ = Term::Variable(std::move(name));
  return e;
}

std::unique_ptr<Expr> Expr::Binary(Op op, std::unique_ptr<Expr> lhs,
                                   std::unique_ptr<Expr> rhs) {
  auto e = std::unique_ptr<Expr>(new Expr());
  e->op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

std::unique_ptr<Expr> Expr::Clone() const {
  if (is_leaf()) {
    auto e = std::unique_ptr<Expr>(new Expr());
    e->term_ = term_;
    return e;
  }
  return Binary(op_, lhs_->Clone(), rhs_->Clone());
}

Result<Value> Expr::Eval(const Binding& binding) const {
  if (is_leaf()) {
    if (term_.is_constant()) return term_.constant_value();
    const Value* v = binding.Find(term_.variable_name());
    if (v == nullptr) {
      return Status::InvalidArgument("unbound variable in expression: " +
                                     term_.variable_name());
    }
    return *v;
  }
  Result<Value> lhs = lhs_->Eval(binding);
  if (!lhs.ok()) return lhs.status();
  Result<Value> rhs = rhs_->Eval(binding);
  if (!rhs.ok()) return rhs.status();
  return ApplyArithmetic(*this, lhs.value(), rhs.value());
}

Result<Value> ApplyArithmetic(const Expr& node, const Value& lhs,
                              const Value& rhs) {
  if (!lhs.is_numeric() || !rhs.is_numeric()) {
    return Status::InvalidArgument("arithmetic over non-numeric operands in " +
                                   node.ToString());
  }
  const double a = lhs.AsDouble();
  const double b = rhs.AsDouble();
  switch (node.op()) {
    case Expr::Op::kAdd:
      return Value::Double(a + b);
    case Expr::Op::kSub:
      return Value::Double(a - b);
    case Expr::Op::kMul:
      return Value::Double(a * b);
    case Expr::Op::kDiv:
      if (b == 0.0) {
        return Status::InvalidArgument("division by zero in " +
                                       node.ToString());
      }
      return Value::Double(a / b);
  }
  return Status::Internal("unknown operator");
}

std::vector<std::string> Expr::VariableNames() const {
  std::vector<std::string> names;
  if (is_leaf()) {
    if (term_.is_variable()) names.push_back(term_.variable_name());
    return names;
  }
  for (const Expr* side : {lhs_.get(), rhs_.get()}) {
    for (std::string& n : side->VariableNames()) {
      if (std::find(names.begin(), names.end(), n) == names.end()) {
        names.push_back(std::move(n));
      }
    }
  }
  return names;
}

std::string Expr::ToString() const {
  if (is_leaf()) return term_.ToString();
  const char* op_text = "+";
  switch (op_) {
    case Op::kAdd:
      op_text = "+";
      break;
    case Op::kSub:
      op_text = "-";
      break;
    case Op::kMul:
      op_text = "*";
      break;
    case Op::kDiv:
      op_text = "/";
      break;
  }
  return "(" + lhs_->ToString() + " " + op_text + " " + rhs_->ToString() + ")";
}

const char* ComparatorToString(Comparator cmp) {
  switch (cmp) {
    case Comparator::kLt:
      return "<";
    case Comparator::kLe:
      return "<=";
    case Comparator::kGt:
      return ">";
    case Comparator::kGe:
      return ">=";
    case Comparator::kEq:
      return "==";
    case Comparator::kNe:
      return "!=";
  }
  return "?";
}

Result<bool> Condition::Eval(const Binding& binding) const {
  Result<Value> l = lhs->Eval(binding);
  if (!l.ok()) return l.status();
  Result<Value> r = rhs->Eval(binding);
  if (!r.ok()) return r.status();
  return ApplyComparison(*this, l.value(), r.value());
}

Result<bool> ApplyComparison(const Condition& condition, const Value& a,
                             const Value& b) {
  if (condition.cmp == Comparator::kEq) return a == b;
  if (condition.cmp == Comparator::kNe) return a != b;
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::InvalidArgument("ordered comparison over non-numerics in " +
                                   condition.ToString());
  }
  const double x = a.AsDouble();
  const double y = b.AsDouble();
  switch (condition.cmp) {
    case Comparator::kLt:
      return x < y;
    case Comparator::kLe:
      return x <= y;
    case Comparator::kGt:
      return x > y;
    case Comparator::kGe:
      return x >= y;
    default:
      return Status::Internal("unreachable comparator");
  }
}

std::vector<std::string> Condition::VariableNames() const {
  std::vector<std::string> names = lhs->VariableNames();
  for (std::string& n : rhs->VariableNames()) {
    if (std::find(names.begin(), names.end(), n) == names.end()) {
      names.push_back(std::move(n));
    }
  }
  return names;
}

std::string Condition::ToString() const {
  return lhs->ToString() + " " + ComparatorToString(cmp) + " " +
         rhs->ToString();
}

std::string Assignment::ToString() const {
  return variable + " = " + expr->ToString();
}

}  // namespace templex
