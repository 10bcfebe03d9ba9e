#ifndef TEMPLEX_ENGINE_QUERY_PLANNER_H_
#define TEMPLEX_ENGINE_QUERY_PLANNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "engine/fact.h"

namespace templex {

// How a point query is evaluated. kAuto evaluates an eligible goal with a
// bound argument query-driven and materializes the rest; the other two
// force a strategy (`templex_cli --eval-mode=...`). A forced kQsqr still resolves
// to kMaterialize when the goal is not eligible for query-driven
// evaluation (QueryPlan::qsqr_refusal) — forcing the mode must never
// change answers.
enum class EvalMode { kAuto, kMaterialize, kQsqr };

const char* EvalModeName(EvalMode mode);
Result<EvalMode> ParseEvalMode(std::string_view text);

// The planner's verdict: deterministic, explainable in one log line, and
// cheap — eligibility and bound arguments, no pass over the EDB.
struct QueryPlan {
  // Resolved strategy: kMaterialize or kQsqr, never kAuto.
  // QueryEvaluator::Evaluate overwrites a kQsqr plan's mode and reason
  // with kMaterialize when the relevance pass overflows.
  EvalMode mode = EvalMode::kMaterialize;
  // One-line rationale ("bound goal; query-driven").
  std::string reason;
  // Why query-driven evaluation could disagree with the full chase for
  // this goal; empty when the goal is eligible. Computed for every plan,
  // whatever mode was requested.
  std::string qsqr_refusal;

  int64_t edb_facts = 0;  // total EDB size
  int bound_args = 0;     // non-Null goal arguments
  int arity = 0;          // goal arity
};

// Plans `goal_pattern` (Null arguments = free). `requested` ==
// kMaterialize / kQsqr forces the strategy (a refused goal still
// materializes); kAuto materializes a goal with no bound argument and
// plans every other eligible goal query-driven.
//
// Every plan first checks the goal's eligibility (DESIGN.md §12): the
// bindings a magic-set rewrite would propagate from the goal are walked
// left to right through the goal's dependency cone, and the goal is
// refused when
//   - a bound goal/subgoal position holds an aggregate result variable
//     (values cannot be seeded through a monotone aggregate);
//   - a rule in the cone has existential head variables (labeled-null
//     identities depend on global derivation order, so a restricted run
//     could not reproduce the full chase's explanations byte for byte);
//   - the magic guards would close a cycle through a negated atom, so the
//     goal-restricted program would not stratify even when the original
//     program does.
QueryPlan PlanQuery(const Program& program, const std::vector<Fact>& edb,
                    const Fact& goal_pattern, EvalMode requested);

}  // namespace templex

#endif  // TEMPLEX_ENGINE_QUERY_PLANNER_H_
