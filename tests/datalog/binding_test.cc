#include "datalog/binding.h"

#include <gtest/gtest.h>

namespace templex {
namespace {

TEST(BindingTest, GetUnbound) {
  Binding binding;
  EXPECT_FALSE(binding.Get("x").has_value());
  EXPECT_FALSE(binding.IsBound("x"));
  EXPECT_TRUE(binding.empty());
}

TEST(BindingTest, BindAndGet) {
  Binding binding;
  EXPECT_TRUE(binding.Bind("x", Value::String("A")));
  ASSERT_TRUE(binding.Get("x").has_value());
  EXPECT_EQ(*binding.Get("x"), Value::String("A"));
  EXPECT_EQ(binding.size(), 1u);
}

TEST(BindingTest, RebindSameValueSucceeds) {
  Binding binding;
  ASSERT_TRUE(binding.Bind("x", Value::Int(1)));
  EXPECT_TRUE(binding.Bind("x", Value::Int(1)));
  EXPECT_EQ(binding.size(), 1u);
}

TEST(BindingTest, RebindConflictFails) {
  Binding binding;
  ASSERT_TRUE(binding.Bind("x", Value::Int(1)));
  EXPECT_FALSE(binding.Bind("x", Value::Int(2)));
  // Original value is preserved.
  EXPECT_EQ(*binding.Get("x"), Value::Int(1));
}

TEST(BindingTest, SetOverwrites) {
  Binding binding;
  binding.Set("x", Value::Int(1));
  binding.Set("x", Value::Int(2));
  EXPECT_EQ(*binding.Get("x"), Value::Int(2));
  EXPECT_EQ(binding.size(), 1u);
}

TEST(BindingTest, MergeCompatible) {
  Binding a;
  a.Set("x", Value::Int(1));
  Binding b;
  b.Set("y", Value::Int(2));
  b.Set("x", Value::Int(1));
  EXPECT_TRUE(a.Merge(b));
  EXPECT_EQ(a.size(), 2u);
}

TEST(BindingTest, MergeConflictFails) {
  Binding a;
  a.Set("x", Value::Int(1));
  Binding b;
  b.Set("x", Value::Int(2));
  EXPECT_FALSE(a.Merge(b));
}

TEST(BindingTest, NumericCrossKindBindIsConsistent) {
  Binding binding;
  ASSERT_TRUE(binding.Bind("x", Value::Int(2)));
  EXPECT_TRUE(binding.Bind("x", Value::Double(2.0)));
}

TEST(BindingTest, ToStringFormat) {
  Binding binding;
  binding.Set("x", Value::String("A"));
  binding.Set("s", Value::Double(0.6));
  EXPECT_EQ(binding.ToString(), "{x=\"A\", s=0.6}");
}

TEST(BindingTest, AssignSlotsRebuildsInSlotOrder) {
  Binding binding;
  binding.Set("stale", Value::Int(1));
  const std::vector<std::string> names = {"x", "z", "ts"};
  const Value values[] = {Value::String("A"), Value::String("B"),
                          Value::Double(0.6)};
  binding.AssignSlots(names, values);
  EXPECT_EQ(binding.ToString(), "{x=\"A\", z=\"B\", ts=0.6}");
  EXPECT_EQ(binding.entries().capacity(), names.size());
}

}  // namespace
}  // namespace templex
