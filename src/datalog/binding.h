#ifndef TEMPLEX_DATALOG_BINDING_H_
#define TEMPLEX_DATALOG_BINDING_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "datalog/value.h"

namespace templex {

// A homomorphism fragment: a mapping from variable names to ground values.
// Rule bodies bind at most a handful of variables, so a flat vector with
// linear lookup beats a hash map and keeps iteration order deterministic.
class Binding {
 public:
  Binding() = default;

  // Returns the bound value, or nullopt.
  std::optional<Value> Get(std::string_view name) const;

  // Pointer form of Get for hot paths: no Value copy, no optional. The
  // pointer is invalidated by any mutation of the binding.
  const Value* Find(std::string_view name) const;

  bool IsBound(std::string_view name) const { return Get(name).has_value(); }

  // Binds name -> value. If already bound, returns true iff the existing
  // value equals `value` (consistency check); otherwise appends and returns
  // true.
  bool Bind(const std::string& name, const Value& value);

  // Overwrites or appends unconditionally.
  void Set(const std::string& name, const Value& value);

  // Merges `other` into this binding; returns false on any conflicting
  // variable (this binding is left partially merged in that case, so callers
  // should treat `false` as a hard error).
  bool Merge(const Binding& other);

  // Rebuilds this binding as {names[i] -> values[i]} for i in
  // [0, names.size()), at exact capacity — how the chase materializes the
  // binding of a node it keeps from a compiled rule plan's slot array
  // (RulePlan::binding_names).
  void AssignSlots(const std::vector<std::string>& names, const Value* values);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<std::pair<std::string, Value>>& entries() const {
    return entries_;
  }

  // Content-based footprint (see Value::ApproxBytes): name lengths plus
  // value bytes plus the per-entry inline pair, independent of vector or
  // string capacities.
  int64_t ApproxBytes() const {
    int64_t total = 0;
    for (const auto& [name, value] : entries_) {
      total += static_cast<int64_t>(sizeof(std::pair<std::string, Value>)) +
               static_cast<int64_t>(name.size()) + value.ApproxBytes() -
               static_cast<int64_t>(sizeof(Value));
    }
    return total;
  }

  // "{x=\"A\", s=0.6}" — for debugging and chase-graph dumps.
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, Value>> entries_;
};

}  // namespace templex

#endif  // TEMPLEX_DATALOG_BINDING_H_
