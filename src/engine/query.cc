#include "engine/query.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/flat_index.h"
#include "common/hash.h"
#include "common/timer.h"
#include "common/watchdog.h"
#include "engine/aggregate_state.h"
#include "engine/chase_graph.h"
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

uint64_t HashValues(uint64_t seed, const Value* values, size_t n) {
  for (size_t i = 0; i < n; ++i) seed = HashCombine(seed, values[i].Hash());
  return seed;
}

// A body or negated atom as the pass reads it: the IDB predicate whose
// memo tables it reads (-1: none), and the positions that repeat a
// variable of an earlier position of the same atom.
struct AtomUse {
  int idb = -1;
  std::vector<char> repeat;
};

// A rule compiled for the pass: the chase's slot plan (against the pass's
// EDB symbols) plus how each body and negated atom is read.
struct PassRule {
  RulePlan plan;
  std::vector<AtomUse> body;
  std::vector<AtomUse> negative;
};

// One slot's state, kept to be restored.
struct SavedSlot {
  int slot;
  Value value;
  Taint taint;
  char bound;
};

// An aggregate group's first match — the slots its emitted rows carry
// outside the result position — and its latest fold, which the chase's
// own AggregateState computes. A dirty group re-emits at the end of the
// evaluation.
struct Group {
  std::vector<SavedSlot> first;
  Value fold;
  bool dirty = true;
};

// One rule deriving a memo table's predicate, evaluated semi-naively:
// rows with id below `seen` have been joined already. Aggregate groups
// persist across evaluations.
struct Unit {
  int rule = 0;
  int id = 0;         // AggregateState rule index
  int32_t seen = -1;  // -1: never evaluated
  std::vector<int32_t> groups;  // AggregateState group ids, creation order
};

// A memoized subquery: one (predicate, bound-argument) pattern and every
// head row derived for it so far — the dynamic extension of the magic
// predicate m@P@adornment seeded with these arguments.
struct Table {
  int idb = -1;  // -1: an extensional goal predicate
  std::vector<Value> pattern;  // Null = free position
  std::vector<int32_t> rows;   // row ids, ascending
  std::vector<Unit> units;     // one per rule deriving the predicate
};

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
//
// Rules run on the chase's compiled slots (engine/rule_plan.h), each slot
// with a value, a bound flag and a Taint. Sweeps are semi-naive: every
// memo row has a global id in insertion order, and a rule re-evaluated
// for a table only enumerates the matches with at least one IDB body atom
// bound to a row new since its previous evaluation (pivoting on the first
// such atom: earlier IDB atoms read old rows, later ones every row up to
// the evaluation's start).
class RelevancePass {
 public:
  RelevancePass(const Program& program, const std::vector<Fact>& edb,
                const ChaseConfig& config, QueryStats* stats)
      : config_(config), stats_(stats) {
    for (const Fact& fact : edb) {
      ChaseNode node;
      node.fact = fact;
      graph_.AddNode(std::move(node));
    }
    relevant_.assign(static_cast<size_t>(graph_.size()), 0);
    for (const Rule& rule : program.rules()) {
      if (rule.is_constraint) continue;
      const auto next = static_cast<int>(rules_by_idb_.size());
      if (idb_.emplace(rule.head.predicate, next).second) {
        rules_by_idb_.emplace_back();
      }
    }
    last_row_.assign(rules_by_idb_.size(), -1);
    size_t slots = 0;
    size_t depth = 0;
    for (size_t i = 0; i < program.rules().size(); ++i) {
      const Rule& rule = program.rules()[i];
      if (rule.is_constraint) continue;
      PassRule& pr = rules_.emplace_back();
      pr.plan = MakeRulePlan(rule, static_cast<int>(i));
      CompileMatchPlan(&pr.plan, graph_.symbols());
      for (size_t j = 0; j < rule.body.size(); ++j) {
        pr.body.push_back(Use(rule.body[j], pr.plan.body[j]));
      }
      for (size_t j = 0; j < rule.negative_body.size(); ++j) {
        pr.negative.push_back(
            Use(rule.negative_body[j], pr.plan.negative_body[j]));
      }
      slots = std::max<size_t>(slots, pr.plan.num_binding_slots());
      depth = std::max(depth, rule.body.size() + 1);
      rules_by_idb_[static_cast<size_t>(IdbOf(rule.head.predicate))]
          .push_back(static_cast<int>(rules_.size() - 1));
    }
    values_.resize(slots);
    taints_.resize(slots);
    bound_.resize(slots);
    frames_.resize(depth);
  }

  // Runs the pass and fills `relevant_edb` with the relevant subset of the
  // deduplicated EDB in original insertion order. Returns
  // kResourceExhausted when the memo tables outgrow config.max_facts
  // (callers fall back to materialization) and propagates deadline /
  // cancellation errors.
  Status Run(const Fact& goal_pattern, std::vector<Fact>* relevant_edb) {
    Intern(IdbOf(goal_pattern.predicate),
           graph_.symbols().Lookup(goal_pattern.predicate), goal_pattern.args);
    bool changed = true;
    while (changed && !overflow_) {
      changed = false;
      ++stats_->qsqr_passes;
      // Tables appended mid-sweep are still visited this sweep.
      for (size_t ti = 0; ti < tables_.size() && !overflow_; ++ti) {
        if (config_.watchdog != nullptr) config_.watchdog->Pet();
        TEMPLEX_RETURN_IF_ERROR(CheckInterruption(
            config_.deadline, config_.cancel, "query.relevance"));
        for (Unit& unit : tables_[ti].units) {
          if (overflow_) continue;
          const size_t rows_before = rows_.size();
          EvaluateUnit(static_cast<int32_t>(ti), &unit);
          changed |= rows_.size() > rows_before;
        }
      }
    }
    stats_->subquery_tables = static_cast<int64_t>(tables_.size());
    if (overflow_) {
      return Status(StatusCode::kResourceExhausted,
                    "relevance tables exceeded max_facts");
    }
    for (FactId id = 0; id < graph_.size(); ++id) {
      if (relevant_[static_cast<size_t>(id)]) {
        relevant_edb->push_back(graph_.node(id).fact);
      }
    }
    stats_->relevant_edb_facts = static_cast<int64_t>(relevant_edb->size());
    return Status::OK();
  }

 private:
  // An atom's entry state during one enumeration: which positions are
  // fixed (a constant, or a slot holding an exact value — these probe the
  // index and compare), and the prior state of the slots its other
  // positions overwrite per candidate, restored when the atom is done.
  struct Frame {
    std::vector<char> fixed;
    std::vector<SavedSlot> saved;
  };

  int IdbOf(const std::string& predicate) const {
    auto it = idb_.find(predicate);
    return it == idb_.end() ? -1 : it->second;
  }

  AtomUse Use(const Atom& atom, const AtomPlan& plan) const {
    AtomUse use{IdbOf(atom.predicate), std::vector<char>(plan.terms.size())};
    for (size_t i = 0; i < plan.terms.size(); ++i) {
      for (size_t k = 0; k < i; ++k) {
        use.repeat[i] |= !plan.terms[i].is_constant &&
                         !plan.terms[k].is_constant &&
                         plan.terms[k].slot == plan.terms[i].slot;
      }
    }
    return use;
  }

  void MarkRelevant(FactId id) { relevant_[static_cast<size_t>(id)] = 1; }

  // Finds or creates the table for (idb, pattern); returns its index. A
  // new table marks the EDB facts matching its pattern relevant.
  int32_t Intern(int idb, Symbol symbol, const std::vector<Value>& pattern) {
    const uint64_t hash = HashValues(HashMix(static_cast<uint64_t>(idb + 1)),
                                     pattern.data(), pattern.size());
    const int32_t found = table_index_.Find(hash, [&](int32_t id) {
      const Table& table = tables_[static_cast<size_t>(id)];
      return table.idb == idb && table.pattern == pattern;
    });
    if (found >= 0) {
      ++stats_->memo_hits;
      return found;
    }
    const auto index = static_cast<int32_t>(tables_.size());
    table_index_.Insert(hash, index);
    Table& table = tables_.emplace_back();
    table.idb = idb;
    table.pattern = pattern;
    if (idb >= 0) {
      for (int rule : rules_by_idb_[static_cast<size_t>(idb)]) {
        Unit& unit = table.units.emplace_back();
        unit.rule = rule;
        unit.id = units_++;
      }
    }
    const int arity = static_cast<int>(pattern.size());
    for (FactId id : graph_.Candidates(symbol, arity, [&](int i) {
           return pattern[i].is_null() ? nullptr : &pattern[i];
         })) {
      const Fact& fact = graph_.node(id).fact;
      bool match = fact.pred_symbol == symbol && fact.arity() == arity;
      for (int i = 0; i < arity && match; ++i) {
        match = pattern[i].is_null() || pattern[i] == fact.args[i];
      }
      if (match) MarkRelevant(id);
    }
    return index;
  }

  // One evaluation of `unit` for table `ti`: a full walk the first time,
  // then one walk per IDB body atom whose predicate gained rows since.
  void EvaluateUnit(int32_t ti, Unit* unit) {
    rule_ = &rules_[static_cast<size_t>(unit->rule)];
    table_ = ti;
    unit_ = unit;
    end_ = static_cast<int32_t>(rows_.size());
    pivot_ = -1;
    if (BindHead(tables_[static_cast<size_t>(ti)].pattern)) {
      if (unit->seen < 0) Walk(0);
      for (size_t j = 0; unit->seen >= 0 && j < rule_->body.size(); ++j) {
        const int idb = rule_->body[j].idb;
        if (idb < 0 || last_row_[static_cast<size_t>(idb)] < unit->seen) {
          continue;
        }
        pivot_ = static_cast<int>(j);
        Walk(0);
      }
      EmitDirtyGroups();
    }
    unit->seen = end_;
  }

  // Unifies the head with the table's pattern. Aggregate result positions
  // are never bound from the pattern: the pattern value (if any) selects
  // among emissions, and which emissions exist is the chase's business.
  // The slots past the body start every match in this state (head_extra_).
  bool BindHead(const std::vector<Value>& pattern) {
    const RulePlan& plan = rule_->plan;
    std::fill(bound_.begin(), bound_.end(), 0);
    for (size_t i = 0; i < pattern.size(); ++i) {
      const TermPlan& term = plan.head.terms[i];
      if (pattern[i].is_null()) continue;
      if (term.is_constant) {
        if (!(term.constant == pattern[i])) return false;
      } else if (term.slot != plan.result_slot) {
        if (bound_[term.slot] && !(values_[term.slot] == pattern[i])) {
          return false;
        }
        Bind(term.slot, pattern[i], Taint::kExact);
      }
    }
    head_extra_.clear();
    for (int s = plan.num_slots(); s < plan.num_binding_slots(); ++s) {
      head_extra_.push_back(Save(s));
    }
    return true;
  }

  void Bind(int slot, const Value& value, Taint taint) {
    values_[slot] = value;
    taints_[slot] = taint;
    bound_[slot] = 1;
  }

  SavedSlot Save(int slot) const {
    return {slot, bound_[slot] ? values_[slot] : Value(), taints_[slot],
            bound_[slot]};
  }

  void Restore(const SavedSlot& saved) {
    bound_[saved.slot] = saved.bound;
    if (saved.bound) Bind(saved.slot, saved.value, saved.taint);
  }

  // Records the atom's fixed positions and saves the slots its other
  // positions will overwrite.
  void Enter(const AtomPlan& atom, const AtomUse& use, Frame* frame) {
    frame->fixed.assign(atom.terms.size(), 0);
    frame->saved.clear();
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const TermPlan& term = atom.terms[i];
      frame->fixed[i] =
          term.is_constant ||
          (bound_[term.slot] && taints_[term.slot] == Taint::kExact);
      if (!frame->fixed[i] && !use.repeat[i]) {
        frame->saved.push_back(Save(term.slot));
      }
    }
  }

  // The value a fixed position probes with; nullptr when free.
  const Value* Fixed(const AtomPlan& atom, const Frame& frame, int i) const {
    if (!frame.fixed[static_cast<size_t>(i)]) return nullptr;
    const TermPlan& term = atom.terms[static_cast<size_t>(i)];
    return term.is_constant ? &term.constant : &values_[term.slot];
  }

  // EDB facts that can match `atom` with the frame's fixed positions
  // probed. Candidates still need a full check.
  const std::vector<FactId>& Candidates(const AtomPlan& atom,
                                        const Frame& frame) const {
    return graph_.Candidates(atom.predicate, atom.arity,
                             [&](int i) { return Fixed(atom, frame, i); });
  }

  // Interns the subquery an IDB atom poses: fixed positions bound.
  int32_t Subquery(const AtomPlan& atom, int idb, const Frame& frame) {
    std::vector<Value> pattern;
    for (int i = 0; i < atom.arity; ++i) {
      const Value* value = Fixed(atom, frame, i);
      pattern.push_back(value != nullptr ? *value : Value::Null());
    }
    return Intern(idb, atom.predicate, pattern);
  }

  // Unifies an EDB fact: fixed and repeated positions compare, the others
  // bind an exact value (a tainted slot is rebound to the EDB's value).
  bool MatchFact(const AtomPlan& atom, const AtomUse& use, const Frame& frame,
                 const Fact& fact) {
    if (fact.pred_symbol != atom.predicate || fact.arity() != atom.arity) {
      return false;
    }
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const TermPlan& term = atom.terms[i];
      if (term.is_constant) {
        if (!(term.constant == fact.args[i])) return false;
      } else if (frame.fixed[i] || use.repeat[i]) {
        if (!(values_[term.slot] == fact.args[i])) return false;
      } else {
        Bind(term.slot, fact.args[i], Taint::kExact);
      }
    }
    return true;
  }

  // Unifies a memo row. A tainted row value never rejects (an
  // intermediate emission could carry any value on the way to the final
  // one); an exact one compares against constants and exact slots, and
  // every other slot takes the row's value and taint.
  bool MatchRow(const AtomPlan& atom, const AtomUse& use, const Frame& frame,
                int32_t row) {
    const size_t offset = rows_[static_cast<size_t>(row)].offset;
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      const TermPlan& term = atom.terms[i];
      const Value& value = row_values_[offset + i];
      const Taint taint = row_taints_[offset + i];
      if (term.is_constant || frame.fixed[i] ||
          (use.repeat[i] && taints_[term.slot] == Taint::kExact)) {
        const Value& want =
            term.is_constant ? term.constant : values_[term.slot];
        if (taint == Taint::kExact && !(want == value)) return false;
      } else {
        Bind(term.slot, value, taint);
      }
    }
    return true;
  }

  // Enumerates body atom j and the rest of the body: EDB facts (every
  // predicate may carry some) and the memo rows the pivot admits.
  void Walk(size_t j) {
    if (overflow_) return;
    if (j == rule_->body.size()) {
      ProcessMatch();
      return;
    }
    const AtomPlan& atom = rule_->plan.body[j];
    const AtomUse& use = rule_->body[j];
    Frame& frame = frames_[j];
    Enter(atom, use, &frame);
    const int at = static_cast<int>(j);
    if (at != pivot_) {
      for (FactId id : Candidates(atom, frame)) {
        if (overflow_) break;
        if (!MatchFact(atom, use, frame, graph_.node(id).fact)) continue;
        MarkRelevant(id);
        Walk(j + 1);
      }
    }
    if (use.idb >= 0) {
      const int32_t lo = at == pivot_ ? unit_->seen : 0;
      const int32_t hi = at < pivot_ ? unit_->seen : end_;
      // Rows appended while this loop runs are past `hi`; index anew.
      const std::vector<int32_t>& rows =
          tables_[static_cast<size_t>(Subquery(atom, use.idb, frame))].rows;
      for (auto k = static_cast<size_t>(
               std::lower_bound(rows.begin(), rows.end(), lo) - rows.begin());
           k < rows.size() && rows[k] < hi && !overflow_; ++k) {
        if (MatchRow(atom, use, frame, rows[k])) Walk(j + 1);
      }
    }
    for (const SavedSlot& saved : frame.saved) Restore(saved);
  }

  // Evaluates a compiled condition permissively: it only rejects when
  // every variable it mentions is bound and exact, or when the single
  // tainted side is a bare variable whose monotone direction proves the
  // final value decides (e.g. `ts > 0.5` on a sum: if the final sum fails,
  // every partial sum failed too). Evaluation errors are the chase's
  // problem, not relevance's.
  bool ConditionHolds(const SlotCondition& cond) const {
    bool tainted[2] = {false, false};
    for (int side = 0; side < 2; ++side) {
      for (const SlotExpr::Node& node : (side ? cond.rhs : cond.lhs).nodes) {
        if (node.lhs >= 0 || node.is_constant) continue;
        if (node.slot < 0 || !bound_[node.slot]) return true;
        tainted[side] |= taints_[node.slot] != Taint::kExact;
      }
    }
    if ((tainted[0] || tainted[1]) &&
        !MonotoneSafe(cond, tainted[0], tainted[1])) {
      return true;
    }
    Result<bool> held = EvalSlotCondition(cond, values_.data());
    return held.ok() ? held.value() : true;
  }

  // Rejecting on the final value is sound iff failure of the final value
  // implies failure of every intermediate emission: an increasing value
  // failing `v > c` / `v >= c`, or a decreasing value failing `v < c` /
  // `v <= c` — and mirrored on the right.
  bool MonotoneSafe(const SlotCondition& cond, bool lhs_tainted,
                    bool rhs_tainted) const {
    if (lhs_tainted == rhs_tainted) return false;
    const SlotExpr& side = lhs_tainted ? cond.lhs : cond.rhs;
    if (side.nodes.size() != 1 || side.nodes[0].is_constant) return false;
    const Taint dir = taints_[side.nodes[0].slot];
    const Comparator cmp = cond.source->cmp;
    const bool greater = cmp == Comparator::kGt || cmp == Comparator::kGe;
    const bool less = cmp == Comparator::kLt || cmp == Comparator::kLe;
    if (dir == Taint::kIncreasing) return lhs_tainted ? greater : less;
    if (dir == Taint::kDecreasing) return lhs_tainted ? less : greater;
    return false;
  }

  void ProcessMatch() {
    const RulePlan& plan = rule_->plan;
    for (const SavedSlot& extra : head_extra_) Restore(extra);

    // Assignments in order, skipped while an operand is unbound; taint
    // propagates through arithmetic as opaque (no usable direction).
    for (const SlotAssignment& assignment : plan.assignments) {
      bool any_tainted = false;
      bool all_bound = true;
      for (const SlotExpr::Node& node : assignment.expr.nodes) {
        if (node.lhs >= 0 || node.is_constant) continue;
        all_bound &= node.slot >= 0 && bound_[node.slot];
        any_tainted |= all_bound && taints_[node.slot] != Taint::kExact;
      }
      if (!all_bound) continue;
      Result<Value> value = EvalSlotExpr(assignment.expr, values_.data());
      if (!value.ok()) continue;
      Bind(assignment.slot, value.value(),
           any_tainted ? Taint::kOpaque : Taint::kExact);
    }

    // Negated atoms never reject here, but their support cones become
    // relevant: the restricted chase needs the complete negated relation
    // (including its extensional blockers) for every binding it checks.
    Frame& frame = frames_.back();
    for (size_t k = 0; k < plan.negative_body.size(); ++k) {
      const AtomPlan& atom = plan.negative_body[k];
      const AtomUse& use = rule_->negative[k];
      Enter(atom, use, &frame);
      for (FactId id : Candidates(atom, frame)) {
        if (MatchFact(atom, use, frame, graph_.node(id).fact)) MarkRelevant(id);
      }
      if (use.idb >= 0) Subquery(atom, use.idb, frame);
      for (const SavedSlot& saved : frame.saved) Restore(saved);
    }

    for (const SlotCondition& cond : plan.pre_condition_plans) {
      if (!ConditionHolds(cond)) return;
    }
    if (plan.rule->has_aggregate()) {
      Contribute();
    } else {
      EmitRow();
    }
  }

  // Folds the current match into its group. AggregateState finds the
  // group; its dense id indexes the pass's own Group record.
  void Contribute() {
    const RulePlan& plan = rule_->plan;
    const Aggregate& aggregate = *plan.rule->aggregate;
    auto slot_values = [&](const std::vector<int>& slots) {
      std::vector<Value> out;
      for (int s : slots) {
        out.push_back(s >= 0 && bound_[s] ? values_[s] : Value::Null());
      }
      return out;
    };
    const AggregateState::GroupRef ref =
        aggregates_.FindOrAddGroup(unit_->id, slot_values(plan.group_slots));
    const auto g = static_cast<size_t>(ref.id());
    if (g == groups_.size()) {
      unit_->groups.push_back(ref.id());
      Group& group = groups_.emplace_back();
      for (int s = 0; s < plan.num_eval_slots; ++s) {
        group.first.push_back(Save(s));
      }
      // A group with no contribution yet emits the empty fold.
      group.fold = aggregate.function == AggregateFunction::kCount
                       ? Value::Int(0)
                       : Value::Double(0.0);
    }
    Value input = Value::Int(1);
    if (!aggregate.input_variable.empty()) {
      if (plan.input_slot < 0 || !bound_[plan.input_slot]) return;
      input = values_[plan.input_slot];
    }
    std::optional<Value> fold = aggregates_.Contribute(
        ref, aggregate.function, plan.explicit_contributor_keys,
        slot_values(plan.contributor_slots), input, {});
    if (!fold.has_value()) return;
    groups_[g].fold = std::move(fold).value();
    groups_[g].dirty = true;
  }

  // Emits a row for every group whose fold changed: the representative
  // match with the fold in the result slot, if the post-aggregate
  // conditions admit it.
  void EmitDirtyGroups() {
    const RulePlan& plan = rule_->plan;
    for (int32_t id : unit_->groups) {
      Group& group = groups_[static_cast<size_t>(id)];
      if (!group.dirty) continue;
      group.dirty = false;
      for (const SavedSlot& saved : group.first) Restore(saved);
      Bind(plan.result_slot, group.fold,
           AggregateTaint(plan.rule->aggregate->function));
      bool keep = true;
      for (const SlotCondition& cond : plan.post_condition_plans) {
        keep = keep && ConditionHolds(cond);
      }
      if (keep) EmitRow();
    }
  }

  // Adds the head over the current slots to the evaluated table unless it
  // has the row already; an unbound head variable reads as an opaque Null.
  void EmitRow() {
    const size_t offset = row_values_.size();
    for (const TermPlan& term : rule_->plan.head.terms) {
      const bool bound = term.is_constant || bound_[term.slot];
      row_values_.push_back(term.is_constant ? term.constant
                            : bound          ? values_[term.slot]
                                             : Value::Null());
      row_taints_.push_back(term.is_constant ? Taint::kExact
                            : bound          ? taints_[term.slot]
                                             : Taint::kOpaque);
    }
    const size_t arity = row_values_.size() - offset;
    const Value* values = row_values_.data() + offset;
    const Taint* taints = row_taints_.data() + offset;
    uint64_t hash = HashValues(HashMix(static_cast<uint64_t>(table_)),
                               values, arity);
    for (size_t i = 0; i < arity; ++i) {
      hash = HashCombine(hash, static_cast<uint64_t>(taints[i]));
    }
    const bool full = total_rows_ >= config_.max_facts;
    overflow_ |= full;
    if (full || row_index_.Find(hash, [&](int32_t id) {
          const RowRef& row = rows_[static_cast<size_t>(id)];
          return row.table == table_ &&
                 std::equal(values, values + arity,
                            row_values_.data() + row.offset) &&
                 std::equal(taints, taints + arity,
                            row_taints_.data() + row.offset);
        }) >= 0) {
      row_values_.resize(offset);
      row_taints_.resize(offset);
      return;
    }
    const auto id = static_cast<int32_t>(rows_.size());
    rows_.push_back({table_, offset});
    row_index_.Insert(hash, id);
    Table& table = tables_[static_cast<size_t>(table_)];
    table.rows.push_back(id);
    last_row_[static_cast<size_t>(table.idb)] = id;
    ++total_rows_;
  }

  struct RowRef {
    int32_t table;
    size_t offset;  // into row_values_ / row_taints_
  };

  const ChaseConfig& config_;
  QueryStats* stats_;

  ChaseGraph graph_;  // the deduplicated EDB, in insertion order
  std::vector<char> relevant_;

  std::map<std::string, int> idb_;  // IDB predicate -> dense index
  std::vector<std::vector<int>> rules_by_idb_;
  std::deque<PassRule> rules_;

  std::deque<Table> tables_;  // never move: units evaluate in place
  FlatIndex table_index_;     // hash of (idb, pattern) -> table
  int units_ = 0;
  AggregateState aggregates_{0};  // groups keyed by (Unit::id, key)
  std::vector<Group> groups_;     // by AggregateState group id
  std::vector<RowRef> rows_;      // every memo row, by id
  std::vector<Value> row_values_;
  std::vector<Taint> row_taints_;
  FlatIndex row_index_;            // hash of (table, row) -> row id
  std::vector<int32_t> last_row_;  // per IDB predicate: newest row id
  int64_t total_rows_ = 0;
  bool overflow_ = false;  // the tables hit max_facts: unwind and return

  // The current evaluation: its rule, table and unit, the semi-naive
  // pivot (-1: none) and the first row id it must not read, and its
  // slots.
  const PassRule* rule_ = nullptr;
  int32_t table_ = 0;
  Unit* unit_ = nullptr;
  int pivot_ = -1;
  int32_t end_ = 0;
  std::vector<Value> values_;
  std::vector<Taint> taints_;
  std::vector<char> bound_;
  std::vector<SavedSlot> head_extra_;
  std::vector<Frame> frames_;  // per body depth; the last for negation
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

  if (!result.plan.qsqr_refusal.empty() && config_.event_log != nullptr) {
    config_.event_log->Log(obs::EventLevel::kWarn, "query", "qsqr.refused",
                           {{"goal", goal_pattern.ToString()},
                            {"reason", result.plan.qsqr_refusal}});
  }

  // The pass lives only in this scope: a fallback chase must not run
  // beside its EDB graph and memo tables.
  std::vector<Fact> relevant_edb;
  if (result.plan.mode == EvalMode::kQsqr) {
    obs::Span span(config_.tracer, "query.qsqr");
    RelevancePass pass(program, edb, config_, &result.stats);
    const Status done = pass.Run(goal_pattern, &relevant_edb);
    if (done.code() != StatusCode::kResourceExhausted) {
      TEMPLEX_RETURN_IF_ERROR(done);
    } else {
      result.plan.mode = EvalMode::kMaterialize;
      result.plan.reason = "relevance pass overflow: " + done.message();
    }
    span.AddAttribute("relevant_edb", result.stats.relevant_edb_facts);
    span.AddAttribute("subqueries", result.stats.subquery_tables);
    span.AddAttribute("passes", result.stats.qsqr_passes);
  }

  // The restricted chase over the relevant EDB, or the only materialize
  // path for point queries (the plan says why).
  QueryStats& stats = result.stats;
  stats.query_driven = result.plan.mode == EvalMode::kQsqr;
  if (!stats.query_driven) stats.fallback_reason = result.plan.reason;
  {
    obs::Span span(config_.tracer,
                   stats.query_driven ? "query.chase" : "query.materialize");
    Result<ChaseResult> chase = ChaseEngine(config_).Run(
        program, stats.query_driven ? relevant_edb : edb);
    TEMPLEX_RETURN_IF_ERROR(chase.status());
    result.chase = std::move(chase.value());
  }
  result.answers = result.chase.Match(goal_pattern);

  timer.Stop();
  stats.answers = static_cast<int64_t>(result.answers.size());
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
    config_.metrics->counter("chase.query.answers")->Increment(stats.answers);
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
  return result;
}

}  // namespace templex
