#ifndef TEMPLEX_ENGINE_QUERY_H_
#define TEMPLEX_ENGINE_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "engine/chase.h"
#include "engine/fact.h"

namespace templex {

// Counters of one query-driven evaluation (also exported as
// chase.query.* metrics when the config carries a registry).
struct QueryStats {
  // True when the goal was answered from a restricted chase over the
  // QSQR-relevant EDB subset; false when the evaluator fell back to a
  // full materialization (see fallback_reason).
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
};

// Checks that a goal pattern is answerable at all: the predicate must
// occur in the program or the EDB, and the pattern's arity must match.
// Returns InvalidArgument otherwise — templex_cli maps this to its
// documented exit code 3.
Status ValidateGoalPattern(const Program& program,
                           const std::vector<Fact>& edb,
                           const Fact& goal_pattern);

// Goal-directed evaluation: QSQR-style top-down resolution with memoized
// subquery tables computes the goal's relevance closure (the dynamic
// counterpart of the magic-set rewrite in datalog/magic.h — each memo
// table is the extension of one magic predicate), then a chase of the
// ORIGINAL program restricted to the relevant EDB subset produces the
// answers and their provenance. Restricting the input instead of running
// the adorned program is what keeps explanations byte-identical: fact
// enumeration order, round numbers, primary-derivation choice, and
// alternative ordering among query-relevant facts all survive the
// restriction (DESIGN.md §12 has the argument).
//
// The evaluator honors the config's deadline, cancellation token, memory
// budget, stall watchdog, and thread count — the relevance pass checks
// interruption between subqueries, the restricted chase enforces
// everything exactly as a full run would.
//
// Falls back to a full materialization (stats.query_driven = false) when
// the magic rewrite refuses, when the relevance tables would exceed
// config.max_facts, or when TEMPLEX_EVAL_MODE=materialize is set; answers
// are identical either way.
class QueryEvaluator {
 public:
  explicit QueryEvaluator(ChaseConfig config) : config_(std::move(config)) {}

  Result<QueryResult> Evaluate(const Program& program,
                               const std::vector<Fact>& edb,
                               const Fact& goal_pattern);

 private:
  ChaseConfig config_;
};

}  // namespace templex

#endif  // TEMPLEX_ENGINE_QUERY_H_
