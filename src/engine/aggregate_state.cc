#include "engine/aggregate_state.h"

#include <algorithm>

#include "common/hash.h"

namespace templex {

namespace {

// Fixed per-entry charge (group or contributor bookkeeping): a constant
// keeps the accounted footprint a pure function of recorded content.
constexpr int64_t kEntryBytes = 48;

int64_t KeyBytes(const std::vector<Value>& key) {
  int64_t total = 0;
  for (const Value& v : key) total += v.ApproxBytes();
  return total;
}

int64_t EntryBytes(const Value& value, size_t num_parents) {
  return value.ApproxBytes() + static_cast<int64_t>(num_parents * sizeof(FactId));
}

// Lexicographic Value::operator< over keys: the contributor order within
// a group and the group order of ForEach.
bool KeyLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
  }
  return a.size() < b.size();
}

}  // namespace

AggregateState::GroupRef AggregateState::FindOrAddGroup(
    int rule_index, const std::vector<Value>& group_key) {
  uint64_t hash = HashMix(static_cast<uint64_t>(rule_index));
  for (const Value& v : group_key) hash = HashCombine(hash, v.Hash());
  const int32_t found = group_index_.Find(hash, [&](int32_t id) {
    const Group& group = groups_[static_cast<size_t>(id)];
    return group.rule == rule_index && group.key == group_key;
  });
  if (found >= 0) return GroupRef(found);
  const auto id = static_cast<int32_t>(groups_.size());
  group_index_.Insert(hash, id);
  approx_bytes_ += KeyBytes(group_key) + kEntryBytes;
  groups_.push_back(Group{rule_index, group_key, {}});
  return GroupRef(id);
}

std::vector<AggregateState::Contributor>::iterator AggregateState::LowerBound(
    Group& group, const std::vector<Value>& key) {
  return std::lower_bound(group.contributors.begin(), group.contributors.end(),
                          key, [](const Contributor& c,
                                  const std::vector<Value>& k) {
                            return KeyLess(c.key, k);
                          });
}

std::optional<Value> AggregateState::Contribute(
    int rule_index, AggregateFunction function, bool explicit_keys,
    const std::vector<Value>& group_key,
    const std::vector<Value>& contributor_key, const Value& input,
    std::span<const FactId> parents, GroupRef* group_ref) {
  const GroupRef group = FindOrAddGroup(rule_index, group_key);
  if (group_ref != nullptr) *group_ref = group;
  return Contribute(group, function, explicit_keys, contributor_key, input,
                    parents);
}

std::optional<Value> AggregateState::Contribute(
    GroupRef ref, AggregateFunction function, bool explicit_keys,
    const std::vector<Value>& contributor_key, const Value& input,
    std::span<const FactId> parents) {
  Group& group = groups_[static_cast<size_t>(ref.id_)];
  auto it = LowerBound(group, contributor_key);
  bool changed = false;
  if (it == group.contributors.end() || KeyLess(contributor_key, it->key)) {
    group.contributors.insert(
        it, Contributor{contributor_key, input,
                        std::vector<FactId>(parents.begin(), parents.end())});
    approx_bytes_ += KeyBytes(contributor_key) +
                     EntryBytes(input, parents.size()) + kEntryBytes;
    changed = true;
  } else if (explicit_keys) {
    bool update = false;
    switch (function) {
      case AggregateFunction::kSum:
      case AggregateFunction::kMax:
      case AggregateFunction::kCount:
        update = it->value < input;
        break;
      case AggregateFunction::kMin:
        update = input < it->value;
        break;
      case AggregateFunction::kProd:
        update = !(input == it->value);
        break;
    }
    if (update) {
      approx_bytes_ += EntryBytes(input, parents.size()) -
                       EntryBytes(it->value, it->parents.size());
      it->value = input;
      it->parents.assign(parents.begin(), parents.end());
      it->parents.shrink_to_fit();
      changed = true;
    }
  }
  // With implicit keys a repeated contributor key carries the identical
  // residual binding, hence the identical input: nothing to do.
  if (!changed) return std::nullopt;
  return Fold(function, group);
}

Value AggregateState::Fold(AggregateFunction function, const Group& group) {
  double acc = 0.0;
  bool first = true;
  for (const Contributor& c : group.contributors) {
    const double v = c.value.is_numeric() ? c.value.AsDouble() : 0.0;
    switch (function) {
      case AggregateFunction::kSum:
        acc += v;
        break;
      case AggregateFunction::kProd:
        acc = first ? v : acc * v;
        break;
      case AggregateFunction::kMin:
        acc = first ? v : std::min(acc, v);
        break;
      case AggregateFunction::kMax:
        acc = first ? v : std::max(acc, v);
        break;
      case AggregateFunction::kCount:
        acc += 1.0;
        break;
    }
    first = false;
  }
  if (function == AggregateFunction::kCount) {
    return Value::Int(static_cast<int64_t>(acc));
  }
  return Value::Double(acc);
}

void AggregateState::Contributions(
    GroupRef group, std::vector<AggregateContribution>* out) const {
  const std::vector<Contributor>& contributors =
      groups_[static_cast<size_t>(group.id_)].contributors;
  out->clear();
  out->reserve(contributors.size());
  for (const Contributor& c : contributors) {
    out->push_back(AggregateContribution{c.value, c.parents});
  }
}

void AggregateState::UnionParents(GroupRef group,
                                  std::vector<FactId>* out) const {
  out->clear();
  for (const Contributor& c :
       groups_[static_cast<size_t>(group.id_)].contributors) {
    for (FactId p : c.parents) {
      if (std::find(out->begin(), out->end(), p) == out->end()) {
        out->push_back(p);
      }
    }
  }
}

void AggregateState::ForEach(
    const std::function<void(int, const std::vector<Value>&,
                             const std::vector<Value>&, const Value&,
                             const std::vector<FactId>&)>& fn) const {
  std::vector<const Group*> ordered;
  ordered.reserve(groups_.size());
  for (const Group& group : groups_) ordered.push_back(&group);
  std::sort(ordered.begin(), ordered.end(), [](const Group* a, const Group* b) {
    if (a->rule != b->rule) return a->rule < b->rule;
    return KeyLess(a->key, b->key);
  });
  for (const Group* group : ordered) {
    for (const Contributor& c : group->contributors) {
      fn(group->rule, group->key, c.key, c.value, c.parents);
    }
  }
}

void AggregateState::Restore(int rule_index,
                             const std::vector<Value>& group_key,
                             const std::vector<Value>& contributor_key,
                             const Value& value,
                             const std::vector<FactId>& parents) {
  Group& group =
      groups_[static_cast<size_t>(FindOrAddGroup(rule_index, group_key).id_)];
  auto it = LowerBound(group, contributor_key);
  if (it == group.contributors.end() || KeyLess(contributor_key, it->key)) {
    group.contributors.insert(it, Contributor{contributor_key, value, parents});
    approx_bytes_ += KeyBytes(contributor_key) +
                     EntryBytes(value, parents.size()) + kEntryBytes;
    return;
  }
  approx_bytes_ += EntryBytes(value, parents.size()) -
                   EntryBytes(it->value, it->parents.size());
  it->value = value;
  it->parents = parents;
}

}  // namespace templex
