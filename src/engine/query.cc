#include "engine/query.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/hash.h"
#include "common/timer.h"
#include "common/watchdog.h"
#include "datalog/binding.h"
#include "engine/fact_store.h"
#include "engine/rule_plan.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace templex {
namespace {

// How a value in a relevance-pass row relates to what the chase would
// compute. kExact values joined and compared normally; values downstream
// of a monotone aggregate are only the final fixpoint of a sequence of
// emissions, so they join permissively (any comparison could be satisfied
// by an intermediate emission) except where monotonicity proves the final
// value decides (see MonotoneSafe).
enum class Taint : uint8_t {
  kExact = 0,
  kIncreasing,  // final value is the maximum emitted (sum/count/max/prod)
  kDecreasing,  // final value is the minimum emitted (min)
  kOpaque,      // mixed through arithmetic; no usable direction
};

Taint AggregateTaint(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kSum:
    case AggregateFunction::kCount:
    case AggregateFunction::kMax:
      return Taint::kIncreasing;
    case AggregateFunction::kMin:
      return Taint::kDecreasing;
    case AggregateFunction::kProd:
      // Contributions below 1 shrink the product; no usable direction.
      return Taint::kOpaque;
  }
  return Taint::kOpaque;
}

struct Row {
  std::vector<Value> values;
  std::vector<Taint> taints;

  bool operator==(const Row& other) const {
    return values == other.values && taints == other.taints;
  }
};

struct RowHash {
  size_t operator()(const Row& row) const {
    size_t h = 0x9e3779b97f4a7c15ull;
    for (const Value& v : row.values) h = HashCombine(h, v.Hash());
    for (Taint t : row.taints) {
      h = HashCombine(h, static_cast<size_t>(t));
    }
    return h;
  }
};

// A memoized subquery: one (predicate, bound-argument) pattern and every
// head row derived for it so far — the dynamic extension of the magic
// predicate m@P@adornment seeded with these arguments.
struct SubqueryKey {
  std::string predicate;
  std::vector<Value> pattern;  // Null = free position

  bool operator==(const SubqueryKey& other) const {
    return predicate == other.predicate && pattern == other.pattern;
  }
};

struct SubqueryKeyHash {
  size_t operator()(const SubqueryKey& key) const {
    size_t h = std::hash<std::string>()(key.predicate);
    for (const Value& v : key.pattern) h = HashCombine(h, v.Hash());
    return h;
  }
};

struct SubqueryTable {
  SubqueryKey key;
  std::vector<Row> rows;
  std::unordered_map<Row, bool, RowHash> seen;

  // Returns true when the row is new.
  bool Add(Row row) {
    auto [it, inserted] = seen.emplace(std::move(row), true);
    if (inserted) rows.push_back(it->first);
    return inserted;
  }
};

// Per-group accumulator for an aggregate rule evaluation: contributor-key
// -> contributed value, under the monotone-contribution semantics of
// datalog/aggregate.h (explicit keys replace monotonically; implicit
// residual keys contribute once).
struct GroupState {
  std::map<std::string, Value> contributions;  // serialized key -> value
  Binding representative;
  std::set<std::string> tainted_vars;
};

std::string SerializeValues(const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) {
    out += v.ToString();
    out.push_back('\x1f');
  }
  return out;
}

// The QSQR relevance pass: top-down resolution of the goal over the
// original (un-adorned) program, memoizing one table per subquery
// pattern and sweeping to fixpoint. Its purpose is not to answer the
// query — the restricted chase does that — but to collect every EDB fact
// any derivation of a goal-relevant fact can touch, which requires being
// * exact on positive joins, assignments, ground conditions, and
//   aggregate values (so monotone thresholds like `ts > 0.5` prune the
//   cone the way the chase does), and
// * permissive wherever exactness would need the full instance: negated
//   atoms never reject (their cones are still pulled in, fully bound, so
//   the restricted chase sees a complete negated relation for every
//   binding it checks), and comparisons on aggregate-tainted values only
//   reject when monotonicity proves the final value decides.
class RelevancePass {
 public:
  RelevancePass(const Program& program, const std::vector<Fact>& edb,
                const ChaseConfig& config, QueryStats* stats)
      : program_(program), config_(config), stats_(stats), store_(&graph_) {
    for (const Fact& fact : edb) {
      ChaseNode node;
      node.fact = fact;
      auto [id, inserted] = graph_.AddNode(std::move(node));
      if (inserted) store_.OnNewFact(id);
    }
    relevant_.assign(static_cast<size_t>(graph_.size()), 0);
    for (size_t i = 0; i < program_.rules().size(); ++i) {
      const Rule& rule = program_.rules()[i];
      if (rule.is_constraint) continue;
      rules_by_head_[rule.head.predicate].push_back(static_cast<int>(i));
      plans_.emplace(static_cast<int>(i),
                     MakeRulePlan(rule, static_cast<int>(i)));
    }
  }

  // Runs the pass. On success fills `relevant_edb` with the relevant
  // subset of the deduplicated EDB in original insertion order. Returns
  // kResourceExhausted when the memo tables outgrow config.max_facts
  // (callers fall back to materialization) and propagates deadline /
  // cancellation errors.
  Status Run(const Fact& goal_pattern, std::vector<Fact>* relevant_edb) {
    SubqueryKey root{goal_pattern.predicate, {}};
    for (const Value& arg : goal_pattern.args) {
      root.pattern.push_back(arg);
    }
    InternSubquery(std::move(root));

    bool changed = true;
    while (changed) {
      TEMPLEX_RETURN_IF_ERROR(CheckInterruption(config_.deadline, config_.cancel,
                                                "query.relevance"));
      if (overflow_) {
        return Status(StatusCode::kResourceExhausted,
                      "relevance tables exceeded max_facts");
      }
      changed = false;
      ++stats_->qsqr_passes;
      // Tables appended mid-sweep are still visited this sweep.
      for (size_t ti = 0; ti < tables_.size(); ++ti) {
        if (config_.watchdog != nullptr) config_.watchdog->Pet();
        TEMPLEX_RETURN_IF_ERROR(CheckInterruption(config_.deadline, config_.cancel,
                                                  "query.relevance"));
        changed |= EvaluateSubquery(static_cast<int>(ti));
        if (overflow_) {
          return Status(StatusCode::kResourceExhausted,
                        "relevance tables exceeded max_facts");
        }
      }
    }

    for (FactId id = 0; id < graph_.size(); ++id) {
      if (relevant_[static_cast<size_t>(id)]) {
        relevant_edb->push_back(graph_.node(id).fact);
        ++stats_->relevant_edb_facts;
      }
    }
    stats_->subquery_tables = static_cast<int64_t>(tables_.size());
    return Status::OK();
  }

 private:
  // Finds or creates the table for `key`; returns its index.
  int InternSubquery(SubqueryKey key) {
    auto it = table_index_.find(key);
    if (it != table_index_.end()) {
      ++stats_->memo_hits;
      return it->second;
    }
    int index = static_cast<int>(tables_.size());
    table_index_.emplace(key, index);
    tables_.push_back(SubqueryTable{std::move(key), {}, {}});
    return index;
  }

  // One resolution step for table `ti`: probe the EDB for the pattern and
  // re-evaluate every rule whose head matches. Returns true when anything
  // (a row, a relevance bit, a new table) changed.
  bool EvaluateSubquery(int ti) {
    // tables_ may reallocate while rules evaluate; copy the key.
    SubqueryKey key = tables_[static_cast<size_t>(ti)].key;
    bool changed = MarkEdbMatches(key);

    auto rules_it = rules_by_head_.find(key.predicate);
    if (rules_it == rules_by_head_.end()) return changed;
    for (int rule_index : rules_it->second) {
      changed |= EvaluateRule(rule_index, key, ti);
    }
    return changed;
  }

  // Marks every EDB fact matching `key` relevant.
  bool MarkEdbMatches(const SubqueryKey& key) {
    Atom probe = PatternAtom(key);
    Binding empty;
    bool changed = false;
    for (FactId id : store_.CandidatesFor(probe, empty)) {
      if (relevant_[static_cast<size_t>(id)]) continue;
      Binding scratch;
      if (!MatchAtom(probe, graph_.node(id).fact, &scratch)) continue;
      relevant_[static_cast<size_t>(id)] = 1;
      changed = true;
    }
    return changed;
  }

  static Atom PatternAtom(const SubqueryKey& key) {
    std::vector<Term> terms;
    terms.reserve(key.pattern.size());
    for (size_t i = 0; i < key.pattern.size(); ++i) {
      if (key.pattern[i].is_null()) {
        terms.push_back(Term::Variable("_q" + std::to_string(i)));
      } else {
        terms.push_back(Term::Constant(key.pattern[i]));
      }
    }
    return Atom(key.predicate, std::move(terms));
  }

  bool EvaluateRule(int rule_index, const SubqueryKey& key, int ti) {
    const Rule& rule = program_.rules()[static_cast<size_t>(rule_index)];
    const RulePlan& plan = plans_.at(rule_index);
    const std::string result_var =
        rule.has_aggregate() ? rule.aggregate->result_variable : "";

    // Unify the head with the pattern. Aggregate result positions are
    // never bound from the pattern: the pattern value (if any) selects
    // among emissions, and which emissions exist is the chase's business.
    Binding binding;
    for (size_t i = 0; i < rule.head.terms.size(); ++i) {
      const Value& want = key.pattern[i];
      if (want.is_null()) continue;
      const Term& term = rule.head.terms[i];
      if (term.is_constant()) {
        if (!(term.constant_value() == want)) return false;
        continue;
      }
      if (term.variable_name() == result_var) continue;
      if (!binding.Bind(term.variable_name(), want)) return false;
    }

    RuleEval eval{this, rule, plan, ti, result_var};
    eval.Walk(0, binding, {});
    return eval.Finish();
  }

  // State of one rule evaluation: walks body atoms left to right,
  // enumerating EDB facts and memoized subquery rows, then feeds complete
  // matches through assignments, conditions, and (for aggregate rules)
  // the group accumulators.
  struct RuleEval {
    RelevancePass* pass;
    const Rule& rule;
    const RulePlan& plan;
    int table_index;
    std::string result_var;

    bool changed = false;
    std::map<std::string, GroupState> groups = {};

    void Walk(size_t j, const Binding& binding,
              const std::set<std::string>& tainted) {
      if (pass->overflow_) return;
      if (j == rule.body.size()) {
        ProcessMatch(binding, tainted);
        return;
      }
      const Atom& atom = rule.body[j];

      // Tainted variables never constrain a probe: an intermediate
      // emission could carry any value on the way to the final one.
      Binding probe_binding;
      for (const auto& [name, value] : binding.entries()) {
        if (tainted.count(name) == 0) probe_binding.Set(name, value);
      }

      // Extensional candidates (every predicate may carry EDB facts).
      for (FactId id : pass->store_.CandidatesFor(atom, probe_binding)) {
        Binding next = probe_binding;
        if (!MatchAtom(atom, pass->graph_.node(id).fact, &next)) continue;
        if (!pass->relevant_[static_cast<size_t>(id)]) {
          pass->relevant_[static_cast<size_t>(id)] = 1;
          changed = true;
        }
        std::set<std::string> next_tainted = tainted;
        for (const std::string& var : atom.VariableNames()) {
          next_tainted.erase(var);  // rebound to an exact EDB value
        }
        Restore(binding, tainted, atom, &next, &next_tainted);
        Walk(j + 1, next, next_tainted);
      }

      // Intensional candidates from the memoized subquery table.
      if (pass->rules_by_head_.count(atom.predicate) == 0) return;
      int sub = pass->InternSubquery(
          SubqueryPattern(atom, binding, tainted));
      // Snapshot the size: recursive rules append to their own table.
      size_t limit = pass->tables_[static_cast<size_t>(sub)].rows.size();
      for (size_t r = 0; r < limit; ++r) {
        Row row = pass->tables_[static_cast<size_t>(sub)].rows[r];
        Binding next = binding;
        std::set<std::string> next_tainted = tainted;
        if (!UnifyRow(atom, row, &next, &next_tainted)) continue;
        Walk(j + 1, next, next_tainted);
      }
    }

    // Variables of `atom` not rebound by the fact (because they were
    // tainted and stripped from the probe binding) must keep their prior
    // value for later exact use; every var the atom does mention has been
    // rebound exactly. Vars outside the atom keep binding/taint as-is —
    // `next` started from the stripped probe binding, so restore them.
    void Restore(const Binding& binding, const std::set<std::string>& tainted,
                 const Atom& atom, Binding* next,
                 std::set<std::string>* next_tainted) {
      std::set<std::string> atom_vars;
      for (const std::string& var : atom.VariableNames()) {
        atom_vars.insert(var);
      }
      for (const auto& [name, value] : binding.entries()) {
        if (tainted.count(name) == 0) continue;  // was in probe binding
        if (atom_vars.count(name) > 0) continue; // rebound exactly
        next->Set(name, value);
        next_tainted->insert(name);
      }
    }

    SubqueryKey SubqueryPattern(const Atom& atom, const Binding& binding,
                                const std::set<std::string>& tainted) {
      SubqueryKey key{atom.predicate, {}};
      key.pattern.reserve(atom.terms.size());
      for (const Term& term : atom.terms) {
        if (term.is_constant()) {
          key.pattern.push_back(term.constant_value());
          continue;
        }
        const std::string& var = term.variable_name();
        const Value* bound = binding.Find(var);
        if (bound != nullptr && tainted.count(var) == 0) {
          key.pattern.push_back(*bound);
        } else {
          key.pattern.push_back(Value::Null());
        }
      }
      return key;
    }

    bool UnifyRow(const Atom& atom, const Row& row, Binding* binding,
                  std::set<std::string>* tainted) {
      for (size_t i = 0; i < atom.terms.size(); ++i) {
        const Term& term = atom.terms[i];
        bool row_tainted = row.taints[i] != Taint::kExact;
        if (term.is_constant()) {
          if (row_tainted) continue;  // permissive
          if (!(term.constant_value() == row.values[i])) return false;
          continue;
        }
        const std::string& var = term.variable_name();
        const Value* bound = binding->Find(var);
        if (bound != nullptr && tainted->count(var) == 0) {
          if (row_tainted) continue;  // permissive
          if (!(*bound == row.values[i])) return false;
          continue;
        }
        binding->Set(var, row.values[i]);
        if (row_tainted) {
          tainted->insert(var);
          RecordDirection(var, row.taints[i]);
        } else {
          tainted->erase(var);
        }
      }
      return true;
    }

    // Direction of each tainted variable, for MonotoneSafe. Directions
    // leak across enumeration branches (the map is not backtracked), so
    // conflicting recordings degrade to kOpaque — never a wrong prune.
    std::map<std::string, Taint> taint_direction = {};

    void RecordDirection(const std::string& var, Taint direction) {
      auto [it, inserted] = taint_direction.emplace(var, direction);
      if (!inserted && it->second != direction) it->second = Taint::kOpaque;
    }

    Taint DirectionOf(const std::string& var,
                      const std::set<std::string>& tainted) const {
      if (tainted.count(var) == 0) return Taint::kExact;
      auto it = taint_direction.find(var);
      return it == taint_direction.end() ? Taint::kOpaque : it->second;
    }

    // Evaluates `cond` under `binding`, treating tainted variables
    // permissively: the condition only rejects when every mentioned
    // variable is exact, or when the single tainted side is a bare
    // variable whose monotone direction proves the final value decides
    // (e.g. `ts > 0.5` on a sum: if the final sum fails, every partial
    // sum failed too).
    bool ConditionHolds(const Condition& cond, const Binding& binding,
                        const std::set<std::string>& tainted) const {
      std::vector<std::string> vars = cond.VariableNames();
      for (const std::string& var : vars) {
        if (binding.Find(var) == nullptr) return true;  // permissive
      }
      bool any_tainted = false;
      for (const std::string& var : vars) {
        if (tainted.count(var) > 0) any_tainted = true;
      }
      if (any_tainted && !MonotoneSafe(cond, tainted)) return true;
      Result<bool> held = cond.Eval(binding);
      return held.ok() ? held.value() : true;  // evaluation errors: the chase's
                                        // problem, not relevance's
    }

    bool MonotoneSafe(const Condition& cond,
                      const std::set<std::string>& tainted) const {
      auto bare_var = [](const Expr* e) -> const std::string* {
        if (e == nullptr || !e->is_variable_leaf()) return nullptr;
        return &e->term().variable_name();
      };
      auto side_tainted = [&](const Expr* e) {
        if (e == nullptr) return false;
        for (const std::string& var : e->VariableNames()) {
          if (tainted.count(var) > 0) return true;
        }
        return false;
      };
      const std::string* lhs_var = bare_var(cond.lhs.get());
      const std::string* rhs_var = bare_var(cond.rhs.get());
      bool lhs_tainted = side_tainted(cond.lhs.get());
      bool rhs_tainted = side_tainted(cond.rhs.get());
      if (lhs_tainted && rhs_tainted) return false;
      // Rejecting on the final value is sound iff failure of the final
      // value implies failure of every intermediate emission: an
      // increasing value failing `v > c` / `v >= c`, or a decreasing
      // value failing `v < c` / `v <= c` — and mirrored on the right.
      if (lhs_tainted) {
        if (lhs_var == nullptr) return false;
        Taint dir = DirectionOf(*lhs_var, tainted);
        if (dir == Taint::kIncreasing) {
          return cond.cmp == Comparator::kGt || cond.cmp == Comparator::kGe;
        }
        if (dir == Taint::kDecreasing) {
          return cond.cmp == Comparator::kLt || cond.cmp == Comparator::kLe;
        }
        return false;
      }
      if (rhs_tainted) {
        if (rhs_var == nullptr) return false;
        Taint dir = DirectionOf(*rhs_var, tainted);
        if (dir == Taint::kIncreasing) {
          return cond.cmp == Comparator::kLt || cond.cmp == Comparator::kLe;
        }
        if (dir == Taint::kDecreasing) {
          return cond.cmp == Comparator::kGt || cond.cmp == Comparator::kGe;
        }
        return false;
      }
      return false;
    }

    void ProcessMatch(const Binding& body_binding,
                      const std::set<std::string>& body_tainted) {
      Binding binding = body_binding;
      std::set<std::string> tainted = body_tainted;

      // Assignments in order; taint propagates through arithmetic as
      // opaque (no usable monotone direction).
      for (const Assignment& assignment : rule.assignments) {
        bool any_tainted = false;
        bool all_bound = true;
        for (const std::string& var : assignment.expr->VariableNames()) {
          if (binding.Find(var) == nullptr) all_bound = false;
          if (tainted.count(var) > 0) any_tainted = true;
        }
        if (!all_bound) continue;
        Result<Value> value = assignment.expr->Eval(binding);
        if (!value.ok()) continue;
        binding.Set(assignment.variable, value.value());
        if (any_tainted) {
          tainted.insert(assignment.variable);
          RecordDirection(assignment.variable, Taint::kOpaque);
        }
      }

      // Negated atoms never reject here, but their support cones become
      // relevant: the restricted chase needs the complete negated
      // relation (including its extensional blockers) for every binding
      // it will check.
      for (const Atom& atom : rule.negative_body) {
        Binding probe_binding;
        for (const auto& [name, value] : binding.entries()) {
          if (tainted.count(name) == 0) probe_binding.Set(name, value);
        }
        for (FactId id : pass->store_.CandidatesFor(atom, probe_binding)) {
          Binding scratch = probe_binding;
          if (!MatchAtom(atom, pass->graph_.node(id).fact, &scratch)) {
            continue;
          }
          if (!pass->relevant_[static_cast<size_t>(id)]) {
            pass->relevant_[static_cast<size_t>(id)] = 1;
            changed = true;
          }
        }
        if (pass->rules_by_head_.count(atom.predicate) > 0) {
          pass->InternSubquery(SubqueryPattern(atom, binding, tainted));
        }
      }

      for (const Condition* cond : rule.PreAggregateConditions()) {
        if (!ConditionHolds(*cond, binding, tainted)) return;
      }

      if (!rule.has_aggregate()) {
        EmitRow(binding, tainted);
        return;
      }

      // Fold this match into its group. Group keys follow the compiled
      // plan: head/post-condition variables minus the result variable.
      std::vector<Value> group_values;
      for (const std::string& var : plan.group_vars) {
        const Value* v = binding.Find(var);
        group_values.push_back(v != nullptr ? *v : Value::Null());
      }
      GroupState& group = groups[SerializeValues(group_values)];
      if (group.representative.empty()) {
        group.representative = binding;
        group.tainted_vars = tainted;
      }

      const std::vector<std::string>& keys =
          plan.explicit_contributor_keys ? rule.aggregate->contributor_keys
                                         : plan.contributor_vars;
      std::vector<Value> key_values;
      for (const std::string& var : keys) {
        const Value* v = binding.Find(var);
        key_values.push_back(v != nullptr ? *v : Value::Null());
      }
      Value input = Value::Int(1);
      if (!rule.aggregate->input_variable.empty()) {
        const Value* v = binding.Find(rule.aggregate->input_variable);
        if (v == nullptr) return;
        input = *v;
      }
      std::string ck = SerializeValues(key_values);
      auto [it, inserted] = group.contributions.emplace(ck, input);
      if (!inserted && !rule.aggregate->contributor_keys.empty()) {
        // Explicit keys contribute their latest monotone value.
        bool keep_min = rule.aggregate->function == AggregateFunction::kMin;
        if (keep_min ? input < it->second : it->second < input) {
          it->second = input;
        }
      }
    }

    void EmitRow(const Binding& binding,
                 const std::set<std::string>& tainted) {
      Row row;
      row.values.reserve(rule.head.terms.size());
      for (const Term& term : rule.head.terms) {
        if (term.is_constant()) {
          row.values.push_back(term.constant_value());
          row.taints.push_back(Taint::kExact);
          continue;
        }
        const std::string& var = term.variable_name();
        const Value* v = binding.Find(var);
        row.values.push_back(v != nullptr ? *v : Value::Null());
        row.taints.push_back(v == nullptr
                                 ? Taint::kOpaque
                                 : DirectionOf(var, tainted));
      }
      if (pass->AddRow(table_index, std::move(row))) changed = true;
    }

    // Completes aggregate groups into rows; returns whether anything new
    // was derived during the whole rule evaluation.
    bool Finish() {
      if (!rule.has_aggregate()) return changed;
      for (auto& [unused_key, group] : groups) {
        Value result = FoldGroup(group);
        Binding binding = group.representative;
        binding.Set(result_var, result);
        std::set<std::string> tainted = group.tainted_vars;
        tainted.insert(result_var);
        RecordDirection(result_var, AggregateTaint(rule.aggregate->function));
        bool keep = true;
        for (const Condition* cond : rule.PostAggregateConditions()) {
          if (!ConditionHolds(*cond, binding, tainted)) {
            keep = false;
            break;
          }
        }
        if (keep) EmitRow(binding, tainted);
      }
      return changed;
    }

    // Mirrors AggregateState::MakeEmission exactly: doubles throughout
    // (non-numeric contributions count as 0.0), Int only for count —
    // exact values here are what make monotone thresholds prune the cone
    // the way the chase does.
    Value FoldGroup(const GroupState& group) const {
      AggregateFunction fn = rule.aggregate->function;
      if (fn == AggregateFunction::kCount) {
        return Value::Int(static_cast<int64_t>(group.contributions.size()));
      }
      double acc = 0.0;
      bool first = true;
      for (const auto& [unused, value] : group.contributions) {
        const double v = value.is_numeric() ? value.AsDouble() : 0.0;
        switch (fn) {
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
            break;
        }
        first = false;
      }
      return Value::Double(acc);
    }
  };

  bool AddRow(int ti, Row row) {
    if (total_rows_ >= config_.max_facts) {
      overflow_ = true;
      return false;
    }
    if (tables_[static_cast<size_t>(ti)].Add(std::move(row))) {
      ++total_rows_;
      return true;
    }
    return false;
  }

  const Program& program_;
  const ChaseConfig& config_;
  QueryStats* stats_;

  ChaseGraph graph_;  // the deduplicated EDB, in insertion order
  FactStore store_;
  std::vector<char> relevant_;

  std::map<std::string, std::vector<int>> rules_by_head_;
  std::map<int, RulePlan> plans_;

  std::vector<SubqueryTable> tables_;
  std::unordered_map<SubqueryKey, int, SubqueryKeyHash> table_index_;
  int64_t total_rows_ = 0;
  bool overflow_ = false;
};

}  // namespace

Status ValidateGoalPattern(const Program& program,
                           const std::vector<Fact>& edb,
                           const Fact& goal_pattern) {
  int arity = -1;
  for (const Rule& rule : program.rules()) {
    auto check = [&](const Atom& atom) {
      if (atom.predicate == goal_pattern.predicate) arity = atom.arity();
    };
    check(rule.head);
    for (const Atom& atom : rule.body) check(atom);
    for (const Atom& atom : rule.negative_body) check(atom);
  }
  if (arity < 0) {
    for (const Fact& fact : edb) {
      if (fact.predicate == goal_pattern.predicate) {
        arity = fact.arity();
        break;
      }
    }
  }
  if (arity < 0) {
    return Status::InvalidArgument("query predicate '" +
                                   goal_pattern.predicate +
                                   "' is unknown to the program and EDB");
  }
  if (arity != goal_pattern.arity()) {
    return Status::InvalidArgument(
        "query goal " + goal_pattern.ToString() + " has arity " +
        std::to_string(goal_pattern.arity()) + " but predicate '" +
        goal_pattern.predicate + "' has arity " + std::to_string(arity));
  }
  return Status::OK();
}

Result<QueryResult> QueryEvaluator::Evaluate(const Program& program,
                                             const std::vector<Fact>& edb,
                                             const Fact& goal_pattern,
                                             EvalMode requested) {
  obs::Span run_span(config_.tracer, "query.run");
  double elapsed_seconds = 0.0;
  ScopedTimer timer(&elapsed_seconds);

  TEMPLEX_RETURN_IF_ERROR(ValidateGoalPattern(program, edb, goal_pattern));

  QueryResult result;
  result.stats.edb_facts = static_cast<int64_t>(edb.size());
  {
    obs::Span span(config_.tracer, "query.plan");
    result.plan = PlanQuery(program, edb, goal_pattern, requested);
    span.AddAttribute("mode", EvalModeName(result.plan.mode));
    span.AddAttribute("eligible",
                      result.plan.qsqr_refusal.empty() ? "yes" : "no");
  }

  auto finish = [&]() -> Result<QueryResult> {
    timer.Stop();
    result.stats.answers = static_cast<int64_t>(result.answers.size());
    const QueryStats& stats = result.stats;
    const char* mode = stats.query_driven ? "qsqr" : "materialize";
    if (config_.metrics != nullptr) {
      config_.metrics->counter("chase.query.runs")->Increment();
      if (!stats.query_driven) {
        config_.metrics->counter("chase.query.fallbacks")->Increment();
      }
      config_.metrics->counter("chase.query.subqueries")
          ->Increment(stats.subquery_tables);
      config_.metrics->counter("chase.query.memo_hits")
          ->Increment(stats.memo_hits);
      config_.metrics->counter("chase.query.relevant_edb_facts")
          ->Increment(stats.relevant_edb_facts);
      config_.metrics->counter("chase.query.answers")
          ->Increment(stats.answers);
      config_.metrics->histogram("chase.query.seconds")
          ->Observe(elapsed_seconds);
    }
    if (config_.event_log != nullptr) {
      config_.event_log->Log(
          obs::EventLevel::kInfo, "query", "run.done",
          {{"goal", goal_pattern.ToString()},
           {"mode", mode},
           {"answers", std::to_string(stats.answers)},
           {"relevant_edb", std::to_string(stats.relevant_edb_facts)},
           {"subqueries", std::to_string(stats.subquery_tables)}});
    }
    run_span.AddAttribute("answers", stats.answers);
    run_span.AddAttribute("mode", mode);
    return std::move(result);
  };

  // The only materialize path for point queries.
  auto materialize = [&](std::string reason) -> Result<QueryResult> {
    obs::Span span(config_.tracer, "query.materialize");
    ChaseEngine engine(config_);
    Result<ChaseResult> chase = engine.Run(program, edb);
    TEMPLEX_RETURN_IF_ERROR(chase.status());
    result.chase = std::move(chase.value());
    result.answers = result.chase.Match(goal_pattern);
    result.stats.query_driven = false;
    result.stats.fallback_reason = std::move(reason);
    return finish();
  };

  if (result.plan.mode == EvalMode::kMaterialize) {
    if (!result.plan.qsqr_refusal.empty() && config_.event_log != nullptr) {
      config_.event_log->Log(obs::EventLevel::kWarn, "query", "qsqr.refused",
                             {{"goal", goal_pattern.ToString()},
                              {"reason", result.plan.qsqr_refusal}});
    }
    return materialize(result.plan.reason);
  }

  std::vector<Fact> relevant_edb;
  {
    obs::Span span(config_.tracer, "query.qsqr");
    RelevancePass pass(program, edb, config_, &result.stats);
    Status status = pass.Run(goal_pattern, &relevant_edb);
    if (status.code() == StatusCode::kResourceExhausted) {
      return materialize("relevance pass overflow: " + status.message());
    }
    TEMPLEX_RETURN_IF_ERROR(status);
    span.AddAttribute("relevant_edb",
                      static_cast<int64_t>(relevant_edb.size()));
    span.AddAttribute("subqueries", result.stats.subquery_tables);
    span.AddAttribute("passes", result.stats.qsqr_passes);
  }

  {
    obs::Span span(config_.tracer, "query.chase");
    ChaseEngine engine(config_);
    Result<ChaseResult> chase = engine.Run(program, relevant_edb);
    TEMPLEX_RETURN_IF_ERROR(chase.status());
    result.chase = std::move(chase.value());
  }
  result.answers = result.chase.Match(goal_pattern);
  result.stats.query_driven = true;
  return finish();
}

}  // namespace templex
