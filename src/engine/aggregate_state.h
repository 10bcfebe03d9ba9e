#ifndef TEMPLEX_ENGINE_AGGREGATE_STATE_H_
#define TEMPLEX_ENGINE_AGGREGATE_STATE_H_

#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/flat_index.h"
#include "datalog/aggregate.h"
#include "engine/chase_graph.h"

namespace templex {

// Monotonic aggregation state for all rules of one chase run.
//
// State is keyed by (rule, group key); within a group, contributions are
// keyed by contributor key:
//   - implicit contributor keys (the residual body binding): each distinct
//     key contributes its value exactly once; re-contributions are no-ops;
//   - explicit contributor keys (`sum(v, [t])`): each key holds its latest
//     monotone value — max for sum/count/max, min for min, last-received for
//     prod — which lets a rule aggregate running per-channel totals emitted
//     by an upstream monotonic aggregation (σ7 of the stress test).
//
// Groups live in creation order in a deque, found through a FlatIndex
// (common/flat_index.h) over the hash of (rule, key) and verified by value
// equality (Value::operator==, so Int(2) and Double(2.0) keys share a
// group, as their hashes agree); a group keeps its
// contributors sorted by contributor key. That order is the one the
// aggregate folds in (floating-point sums depend on it), the order of a
// node's `contributions`, and the order ForEach visits.
//
// A contribution that changes its group returns only the new aggregate
// value. The contribution list and parent union that provenance needs are
// materialized on request (Contributions / UnionParents), so the chase
// copies them only for the head facts and alternatives the graph keeps.
class AggregateState {
 private:
  struct Group;

 public:
  // Names a group: its index in creation order (0, 1, 2, ...), so a
  // caller can keep its own per-group state in a vector. Valid until this
  // state is assigned to or destroyed; it reads the group's contents at
  // call time, which the next Contribute may change.
  class GroupRef {
   public:
    GroupRef() = default;
    int32_t id() const { return id_; }

   private:
    friend class AggregateState;
    explicit GroupRef(int32_t id) : id_(id) {}
    int32_t id_ = -1;
  };

  explicit AggregateState(int num_rules) : num_rules_(num_rules) {}

  // The group of (rule, key), created empty (and accounted) on first use.
  GroupRef FindOrAddGroup(int rule_index, const std::vector<Value>& group_key);

  // Registers a contribution to `group`. Returns the group's new aggregate
  // value if the group changed, nullopt otherwise. `explicit_keys` selects
  // the update discipline above.
  std::optional<Value> Contribute(GroupRef group, AggregateFunction function,
                                  bool explicit_keys,
                                  const std::vector<Value>& contributor_key,
                                  const Value& input,
                                  std::span<const FactId> parents);

  // The same for the group of (rule, key); `group` (optional) receives it.
  std::optional<Value> Contribute(int rule_index, AggregateFunction function,
                                  bool explicit_keys,
                                  const std::vector<Value>& group_key,
                                  const std::vector<Value>& contributor_key,
                                  const Value& input,
                                  std::span<const FactId> parents,
                                  GroupRef* group = nullptr);

  // The group's contributions in contributor-key order, into an
  // exact-size vector (stored provenance must not carry growth slack).
  void Contributions(GroupRef group,
                     std::vector<AggregateContribution>* out) const;

  // The union of the group's contributor parents, deduplicated, in
  // first-appearance order over the contributions. Overwrites *out.
  void UnionParents(GroupRef group, std::vector<FactId>* out) const;

  int num_rules() const { return num_rules_; }

  // Serialization support (io/checkpoint.h). ForEach visits every recorded
  // contribution in deterministic order (rule index ascending, then group
  // key, then contributor key, both by Value::operator<), and Restore
  // overwrites one contribution in place. Replaying a checkpoint's entries
  // through Restore in their recorded order reconstructs the exact state:
  // snapshot entries come from ForEach, and journal entries are the
  // monotone update stream (each Contribute that changed state), whose last
  // write per key is the current value.
  void ForEach(
      const std::function<void(int rule_index,
                               const std::vector<Value>& group_key,
                               const std::vector<Value>& contributor_key,
                               const Value& value,
                               const std::vector<FactId>& parents)>& fn) const;

  void Restore(int rule_index, const std::vector<Value>& group_key,
               const std::vector<Value>& contributor_key, const Value& value,
               const std::vector<FactId>& parents);

  // Content-based footprint of the recorded keys/values/parents (see
  // Value::ApproxBytes), maintained incrementally by Contribute/Restore.
  int64_t approx_bytes() const { return approx_bytes_; }

 private:
  struct Contributor {
    std::vector<Value> key;
    Value value;
    std::vector<FactId> parents;
  };

  // One (rule, group key) group; its index in groups_ is its FlatIndex id.
  struct Group {
    int rule = 0;
    std::vector<Value> key;
    std::vector<Contributor> contributors;  // ascending by key
  };

  // Position of `key` in the group's sorted contributors: the first
  // contributor not less than it.
  static std::vector<Contributor>::iterator LowerBound(
      Group& group, const std::vector<Value>& key);

  static Value Fold(AggregateFunction function, const Group& group);

  // Deque: growth never copies every group at once.
  std::deque<Group> groups_;
  FlatIndex group_index_;  // hash of (rule, key) -> index into groups_
  int num_rules_ = 0;
  int64_t approx_bytes_ = 0;
};

}  // namespace templex

#endif  // TEMPLEX_ENGINE_AGGREGATE_STATE_H_
