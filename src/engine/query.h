#ifndef TEMPLEX_ENGINE_QUERY_H_
#define TEMPLEX_ENGINE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "engine/chase.h"
#include "engine/fact.h"
#include "engine/query_planner.h"

namespace templex {

// Counters of one query-driven evaluation (also exported as
// chase.query.* metrics when the config carries a registry).
struct QueryStats {
  // True when the goal was answered from a restricted chase over the
  // QSQR-relevant EDB subset; false when the evaluator materialized the
  // full chase instead (see fallback_reason).
  bool query_driven = false;
  std::string fallback_reason;

  int64_t subquery_tables = 0;    // memoized (predicate, binding) tables
  int64_t memo_hits = 0;          // subqueries answered from the memo
  int64_t qsqr_passes = 0;        // outer fixpoint sweeps
  int64_t edb_facts = 0;          // total EDB size
  int64_t relevant_edb_facts = 0; // EDB facts the restricted chase saw
  int64_t answers = 0;
};

struct QueryResult {
  // Facts matching the goal pattern, in chase enumeration order — the
  // exact sequence KnowledgeGraphApplication::Query would produce.
  std::vector<Fact> answers;
  // The chase that derived them: restricted (query-driven) or full
  // (fallback). Carries provenance for every fact it contains, so
  // Explainer::Explain over it yields byte-identical text to a full
  // materialization for every query-relevant fact.
  ChaseResult chase;
  QueryStats stats;
  // The plan Evaluate followed: an overflowing relevance pass rewrites a
  // kQsqr plan to kMaterialize with the reason.
  QueryPlan plan;
};

// Checks that a goal pattern is answerable at all: the predicate must
// occur in the program or the EDB, and the pattern's arity must match.
// Returns InvalidArgument otherwise — templex_cli maps this to its
// documented exit code 3.
Status ValidateGoalPattern(const Program& program,
                           const std::vector<Fact>& edb,
                           const Fact& goal_pattern);

// Answers a point query, planning it once with PlanQuery
// (engine/query_planner.h) and owning both strategies:
//
//   - query-driven: QSQR-style top-down resolution with memoized subquery
//     tables computes the goal's relevance closure (the dynamic
//     counterpart of a magic-set rewrite — each memo table is the
//     extension of one magic predicate), then a chase of the ORIGINAL
//     program restricted to the relevant EDB subset produces the answers
//     and their provenance. Restricting the input instead of running an
//     adorned program is what keeps explanations byte-identical: fact
//     enumeration order, round numbers, primary-derivation choice, and
//     alternative ordering among query-relevant facts all survive the
//     restriction (DESIGN.md §12 has the argument);
//   - materialize: the full chase, filtered by the goal pattern
//     (stats.query_driven = false). Taken when the plan says so — the
//     goal is not eligible, has no bound argument under kAuto, or the
//     caller forced it — and when the relevance tables would exceed
//     config.max_facts. The pass is freed before the full chase starts,
//     and the returned plan's mode and reason name the strategy that ran.
//     Answers are identical either way.
//
// `requested` defaults to kQsqr: direct callers get query-driven
// evaluation whenever the goal is eligible.
// KnowledgeGraphApplication::RunForQuery passes the CLI's --eval-mode
// (kAuto by default).
//
// The evaluator honors the config's deadline, cancellation token, memory
// budget, stall watchdog, and thread count — the relevance pass checks
// interruption between subqueries, the chase enforces everything exactly
// as a full run would.
class QueryEvaluator {
 public:
  explicit QueryEvaluator(ChaseConfig config) : config_(std::move(config)) {}

  Result<QueryResult> Evaluate(const Program& program,
                               const std::vector<Fact>& edb,
                               const Fact& goal_pattern,
                               EvalMode requested = EvalMode::kQsqr);

 private:
  ChaseConfig config_;
};

}  // namespace templex

#endif  // TEMPLEX_ENGINE_QUERY_H_
