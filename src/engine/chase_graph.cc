#include "engine/chase_graph.h"

#include <algorithm>
#include <utility>

namespace templex {

namespace {

// Fixed per-node charge for the dedup index entry and the per-predicate id
// list slot. A constant (rather than live bucket-count arithmetic) keeps
// the figure a pure function of graph content.
constexpr int64_t kPerNodeIndexBytes = 64;

}  // namespace

int64_t ApproxBytes(const AggregateContribution& contribution) {
  int64_t total = static_cast<int64_t>(sizeof(AggregateContribution)) +
                  contribution.input.ApproxBytes() -
                  static_cast<int64_t>(sizeof(Value));
  total += static_cast<int64_t>(contribution.parents.size() * sizeof(FactId));
  return total;
}

int64_t ApproxBytes(const Derivation& derivation) {
  int64_t total = static_cast<int64_t>(sizeof(Derivation)) +
                  static_cast<int64_t>(derivation.parents.size() *
                                       sizeof(FactId));
  for (const Value& v : derivation.values) total += v.ApproxBytes();
  for (const AggregateContribution& c : derivation.contributions) {
    total += ApproxBytes(c);
  }
  return total;
}

int64_t ApproxBytes(const ChaseNode& node) {
  int64_t total = static_cast<int64_t>(sizeof(ChaseNode)) +
                  node.fact.ApproxBytes() -
                  static_cast<int64_t>(sizeof(Fact)) +
                  ApproxBytes(node.derivation) -
                  static_cast<int64_t>(sizeof(Derivation));
  for (const Derivation& d : node.alternatives) total += ApproxBytes(d);
  return total;
}

const RuleSchema* ChaseGraph::rule(int rule_index) const {
  if (rules_ == nullptr || rule_index < 0 ||
      static_cast<size_t>(rule_index) >= rules_->size()) {
    return nullptr;
  }
  return &(*rules_)[static_cast<size_t>(rule_index)];
}

const std::string& ChaseGraph::RuleLabel(int rule_index) const {
  static const std::string kNone;
  const RuleSchema* schema = rule(rule_index);
  return schema != nullptr ? schema->label : kNone;
}

std::string ChaseGraph::BindingToString(int rule_index,
                                        std::span<const Value> values) const {
  const RuleSchema* schema = rule(rule_index);
  std::string result = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) result += ", ";
    if (schema != nullptr && i < schema->binding_names.size()) {
      result += schema->binding_names[i];
    }
    result += "=" + values[i].ToString();
  }
  return result + "}";
}

std::pair<FactId, bool> ChaseGraph::AddNode(ChaseNode node) {
  const size_t hash = node.fact.Hash();
  if (std::optional<FactId> existing = Find(node.fact, hash)) {
    return {*existing, false};
  }
  return {Insert(std::move(node), hash), true};
}

FactId ChaseGraph::Insert(ChaseNode node, size_t hash) {
  const FactId id = static_cast<FactId>(nodes_.size());
  node.fact.pred_symbol = symbols_.Intern(node.fact.predicate);
  if (node.fact.pred_symbol >= static_cast<Symbol>(by_predicate_.size())) {
    by_predicate_.resize(node.fact.pred_symbol + 1);
  }
  by_predicate_[node.fact.pred_symbol].push_back(id);
  index_.Insert(hash, id);
  approx_bytes_ += ApproxBytes(node) + kPerNodeIndexBytes;
  int32_t level = 0;
  for (FactId parent : node.derivation.parents) {
    if (parent >= 0 && parent < id) {
      level = std::max(level, levels_[parent] + 1);
    }
  }
  levels_.push_back(level);
  nodes_.push_back(std::move(node));
  return id;
}

std::optional<FactId> ChaseGraph::Find(const Fact& fact) const {
  return Find(fact, fact.Hash());
}

std::optional<FactId> ChaseGraph::Find(const Fact& fact, size_t hash) const {
  const FactId id = index_.Find(
      hash, [&](int32_t candidate) { return nodes_[candidate].fact == fact; });
  if (id < 0) return std::nullopt;
  return id;
}

std::vector<FactId> ChaseGraph::AncestorClosure(FactId id) const {
  return AncestorClosure(std::span<const FactId>(&id, 1));
}

std::vector<FactId> ChaseGraph::AncestorClosure(
    std::span<const FactId> roots) const {
  std::vector<FactId> stack(roots.begin(), roots.end());
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<FactId> result;
  while (!stack.empty()) {
    FactId current = stack.back();
    stack.pop_back();
    if (seen[current]) continue;
    seen[current] = true;
    result.push_back(current);
    for (FactId parent : nodes_[current].derivation.parents) {
      if (!seen[parent]) stack.push_back(parent);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

bool ChaseGraph::DependsOn(FactId node, FactId target) const {
  if (target > node) return false;  // ancestors only have smaller ids
  if (target == node) return true;
  const int32_t floor = levels_[target];
  if (levels_[node] <= floor) return false;
  // Visit marks by epoch: one stamp per id, reused across calls on this
  // thread, so a walk costs what it visits rather than the id range.
  thread_local std::vector<uint32_t> stamp;
  thread_local uint32_t epoch = 0;
  thread_local std::vector<FactId> stack;
  if (stamp.size() < nodes_.size()) stamp.resize(nodes_.size(), 0);
  if (++epoch == 0) {  // wrapped: old marks could alias the new epoch
    std::fill(stamp.begin(), stamp.end(), 0);
    epoch = 1;
  }
  stack.clear();
  stack.push_back(node);
  while (!stack.empty()) {
    const FactId current = stack.back();
    stack.pop_back();
    for (FactId parent : nodes_[current].derivation.parents) {
      if (parent == target) return true;
      // Below target's id or level: no way back up to it.
      if (parent < target || levels_[parent] <= floor) continue;
      if (stamp[parent] == epoch) continue;
      stamp[parent] = epoch;
      stack.push_back(parent);
    }
  }
  return false;
}

const std::vector<FactId>& ChaseGraph::FactsOf(
    const std::string& predicate) const {
  return FactsOf(symbols_.Lookup(predicate));
}

const std::vector<FactId>& ChaseGraph::FactsOf(Symbol predicate) const {
  if (predicate < 0 || predicate >= static_cast<Symbol>(by_predicate_.size())) {
    return empty_;
  }
  return by_predicate_[predicate];
}

std::string ChaseGraph::ToDot(FactId goal) const {
  std::vector<FactId> ids;
  if (goal == kInvalidFactId) {
    ids.resize(nodes_.size());
    for (FactId id = 0; id < size(); ++id) ids[id] = id;
  } else {
    ids = AncestorClosure(goal);
  }
  std::string dot = "digraph chase {\n  rankdir=TB;\n";
  for (FactId id : ids) {
    dot += "  n" + std::to_string(id) + " [label=\"" + nodes_[id].fact.ToString() +
           "\", shape=box];\n";
  }
  for (FactId id : ids) {
    const Derivation& derivation = nodes_[id].derivation;
    for (FactId parent : derivation.parents) {
      dot += "  n" + std::to_string(parent) + " -> n" + std::to_string(id) +
             " [label=\"" + RuleLabel(derivation.rule_index) + "\"];\n";
    }
  }
  dot += "}\n";
  return dot;
}

}  // namespace templex
