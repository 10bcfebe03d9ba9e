#include "datalog/condition.h"

#include <gtest/gtest.h>

#include "engine/rule_plan.h"

namespace templex {
namespace {

// Variables and their values: the names compile an expression onto slots
// (CompileSlotExpr), the values are the slot array it evaluates over.
struct Slots {
  std::vector<std::string> names;
  std::vector<Value> values;
};

Slots MakeSlots(std::initializer_list<std::pair<const char*, Value>> kv) {
  Slots slots;
  for (const auto& [name, value] : kv) {
    slots.names.push_back(name);
    slots.values.push_back(value);
  }
  return slots;
}

Result<Value> Eval(const Expr& expr, const Slots& slots) {
  return EvalSlotExpr(CompileSlotExpr(expr, slots.names),
                      slots.values.data());
}

Result<bool> Eval(const Condition& condition, const Slots& slots) {
  return EvalSlotCondition(CompileSlotCondition(condition, slots.names),
                           slots.values.data());
}

TEST(ExprTest, ConstantEval) {
  auto e = Expr::Constant(Value::Int(7));
  Slots empty;
  ASSERT_TRUE(Eval(*e, empty).ok());
  EXPECT_EQ(Eval(*e, empty).value(), Value::Int(7));
}

TEST(ExprTest, VariableEval) {
  auto e = Expr::Variable("x");
  Slots slots = MakeSlots({{"x", Value::Double(0.5)}});
  EXPECT_EQ(Eval(*e, slots).value(), Value::Double(0.5));
}

TEST(ExprTest, Arithmetic) {
  Slots slots = MakeSlots({{"a", Value::Double(6)}, {"b", Value::Double(2)}});
  auto mk = [](Expr::Op op) {
    return Expr::Binary(op, Expr::Variable("a"), Expr::Variable("b"));
  };
  EXPECT_EQ(Eval(*mk(Expr::Op::kAdd), slots).value(), Value::Double(8));
  EXPECT_EQ(Eval(*mk(Expr::Op::kSub), slots).value(), Value::Double(4));
  EXPECT_EQ(Eval(*mk(Expr::Op::kMul), slots).value(), Value::Double(12));
  EXPECT_EQ(Eval(*mk(Expr::Op::kDiv), slots).value(), Value::Double(3));
}

TEST(ExprTest, DivisionByZeroErrors) {
  Slots slots = MakeSlots({{"a", Value::Int(1)}, {"b", Value::Int(0)}});
  auto e = Expr::Binary(Expr::Op::kDiv, Expr::Variable("a"),
                        Expr::Variable("b"));
  Result<Value> value = Eval(*e, slots);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(value.status().message(), "division by zero in (a / b)");
}

TEST(ExprTest, NonNumericArithmeticErrors) {
  Slots slots = MakeSlots({{"a", Value::String("x")}, {"b", Value::Int(1)}});
  auto e = Expr::Binary(Expr::Op::kAdd, Expr::Variable("a"),
                        Expr::Variable("b"));
  Result<Value> value = Eval(*e, slots);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(value.status().message(),
            "arithmetic over non-numeric operands in (a + b)");
}

TEST(ExprTest, NestedExpression) {
  // (a + b) * 2
  Slots slots = MakeSlots({{"a", Value::Int(3)}, {"b", Value::Int(4)}});
  auto e = Expr::Binary(
      Expr::Op::kMul,
      Expr::Binary(Expr::Op::kAdd, Expr::Variable("a"), Expr::Variable("b")),
      Expr::Constant(Value::Int(2)));
  EXPECT_EQ(Eval(*e, slots).value(), Value::Double(14));
  EXPECT_EQ(e->ToString(), "((a + b) * 2)");
}

TEST(ExprTest, CloneIsDeep) {
  auto e = Expr::Binary(Expr::Op::kMul, Expr::Variable("s1"),
                        Expr::Variable("s2"));
  auto clone = e->Clone();
  Slots slots =
      MakeSlots({{"s1", Value::Double(0.5)}, {"s2", Value::Double(0.4)}});
  EXPECT_EQ(Eval(*clone, slots).value(), Value::Double(0.2));
  EXPECT_EQ(clone->ToString(), e->ToString());
}

TEST(ExprTest, VariableNamesDeduplicated) {
  auto e = Expr::Binary(Expr::Op::kAdd, Expr::Variable("x"),
                        Expr::Binary(Expr::Op::kMul, Expr::Variable("x"),
                                     Expr::Variable("y")));
  auto names = e->VariableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "x");
  EXPECT_EQ(names[1], "y");
}

TEST(ConditionTest, NumericComparisons) {
  Slots slots = MakeSlots({{"s", Value::Int(6)}, {"p", Value::Int(5)}});
  auto holds = [&slots](Comparator cmp) {
    return Eval(Condition(Expr::Variable("s"), cmp, Expr::Variable("p")),
                slots)
        .value();
  };
  EXPECT_TRUE(holds(Comparator::kGt));
  EXPECT_TRUE(holds(Comparator::kGe));
  EXPECT_FALSE(holds(Comparator::kLt));
  EXPECT_FALSE(holds(Comparator::kLe));
  EXPECT_FALSE(holds(Comparator::kEq));
  EXPECT_TRUE(holds(Comparator::kNe));
}

TEST(ConditionTest, StringEquality) {
  Slots slots = MakeSlots(
      {{"t", Value::String("long")}, {"u", Value::String("short")}});
  Condition eq(Expr::Variable("t"), Comparator::kEq,
               Expr::Constant(Value::String("long")));
  EXPECT_TRUE(Eval(eq, slots).value());
  Condition ne(Expr::Variable("t"), Comparator::kNe, Expr::Variable("u"));
  EXPECT_TRUE(Eval(ne, slots).value());
}

TEST(ConditionTest, OrderedStringComparisonErrors) {
  Slots slots = MakeSlots({{"t", Value::String("long")}});
  Condition lt(Expr::Variable("t"), Comparator::kLt,
               Expr::Constant(Value::Int(1)));
  Result<bool> held = Eval(lt, slots);
  ASSERT_FALSE(held.ok());
  EXPECT_EQ(held.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(held.status().message(),
            "ordered comparison over non-numerics in t < 1");
}

TEST(ConditionTest, CopySemantics) {
  Condition original(Expr::Variable("a"), Comparator::kGt,
                     Expr::Constant(Value::Int(0)));
  Condition copy = original;
  Slots slots = MakeSlots({{"a", Value::Int(1)}});
  EXPECT_TRUE(Eval(copy, slots).value());
  EXPECT_EQ(copy.ToString(), "a > 0");
}

TEST(ConditionTest, VariableNamesAcrossSides) {
  Condition c(Expr::Variable("a"), Comparator::kLt,
              Expr::Binary(Expr::Op::kAdd, Expr::Variable("b"),
                           Expr::Variable("a")));
  auto names = c.VariableNames();
  ASSERT_EQ(names.size(), 2u);
}

TEST(AssignmentTest, ToStringAndCopy) {
  Assignment a("p", Expr::Binary(Expr::Op::kMul, Expr::Variable("s1"),
                                 Expr::Variable("s2")));
  EXPECT_EQ(a.ToString(), "p = (s1 * s2)");
  Assignment copy = a;
  EXPECT_EQ(copy.ToString(), a.ToString());
}

TEST(ComparatorTest, ToStringAll) {
  EXPECT_STREQ(ComparatorToString(Comparator::kLt), "<");
  EXPECT_STREQ(ComparatorToString(Comparator::kLe), "<=");
  EXPECT_STREQ(ComparatorToString(Comparator::kGt), ">");
  EXPECT_STREQ(ComparatorToString(Comparator::kGe), ">=");
  EXPECT_STREQ(ComparatorToString(Comparator::kEq), "==");
  EXPECT_STREQ(ComparatorToString(Comparator::kNe), "!=");
}

}  // namespace
}  // namespace templex
