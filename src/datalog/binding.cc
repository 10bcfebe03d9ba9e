#include "datalog/binding.h"

namespace templex {

std::optional<Value> Binding::Get(std::string_view name) const {
  const Value* v = Find(name);
  if (v == nullptr) return std::nullopt;
  return *v;
}

const Value* Binding::Find(std::string_view name) const {
  for (const auto& [n, v] : entries_) {
    if (n == name) return &v;
  }
  return nullptr;
}

bool Binding::Bind(const std::string& name, const Value& value) {
  for (const auto& [n, v] : entries_) {
    if (n == name) return v == value;
  }
  entries_.emplace_back(name, value);
  return true;
}

void Binding::Set(const std::string& name, const Value& value) {
  for (auto& [n, v] : entries_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  entries_.emplace_back(name, value);
}

void Binding::AssignSlots(const std::vector<std::string>& names,
                          const Value* values) {
  entries_.clear();
  entries_.shrink_to_fit();
  entries_.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    entries_.emplace_back(names[i], values[i]);
  }
}

bool Binding::Merge(const Binding& other) {
  for (const auto& [n, v] : other.entries_) {
    if (!Bind(n, v)) return false;
  }
  return true;
}

std::string Binding::ToString() const {
  std::string result = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) result += ", ";
    result += entries_[i].first;
    result += "=";
    result += entries_[i].second.ToString();
  }
  result += "}";
  return result;
}

}  // namespace templex
