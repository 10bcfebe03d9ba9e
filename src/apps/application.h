#ifndef TEMPLEX_APPS_APPLICATION_H_
#define TEMPLEX_APPS_APPLICATION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/chase.h"
#include "engine/query.h"
#include "engine/query_planner.h"
#include "explain/anonymizer.h"
#include "explain/explainer.h"

namespace templex {

// A deployed Knowledge Graph application (§4.4's "automated pipeline" as a
// single object): the rule program, its domain glossary, the explanation
// pipeline built once at deployment, the extensional facts, and the chase
// state — with query and explanation-query entry points. This is the facade
// a downstream system (e.g. a graph front-end) integrates against.
//
//   auto app = KnowledgeGraphApplication::Create(
//       CompanyControlProgram(), CompanyControlGlossary()).value();
//   app->AddFacts(LoadFactsCsv("ownership.csv").value());
//   app->Run().IgnoreResult...
//   for (const Fact& c : app->Query({"Control", {Null(), Null()}})) ...
//   std::string report = app->Explain(c).value();
class KnowledgeGraphApplication {
 public:
  // Builds the pipeline (structural analysis + templates + enhancement).
  static Result<std::unique_ptr<KnowledgeGraphApplication>> Create(
      Program program, DomainGlossary glossary,
      ExplainerOptions options = ExplainerOptions());

  KnowledgeGraphApplication(const KnowledgeGraphApplication&) = delete;
  KnowledgeGraphApplication& operator=(const KnowledgeGraphApplication&) =
      delete;

  // Appends extensional facts. Invalidates any previous chase.
  void AddFacts(std::vector<Fact> facts);

  // Runs the chase over the loaded facts.
  Status Run(ChaseConfig config = ChaseConfig());

  // Runs just enough of the chase to answer `goal_pattern` (Null arguments
  // act as wildcards): QueryEvaluator::Evaluate plans materialize-vs-qsqr
  // and runs the chosen strategy (engine/query.h); the application then
  // installs the chase it produced, so Query() and Explain() work
  // unchanged afterwards — under the query-driven strategy they only cover
  // goal-relevant facts, with byte-identical answers and explanation text
  // for those.
  struct QueryExecution {
    QueryPlan plan;       // the chooser's verdict and estimates
    QueryStats stats;     // what the evaluation actually did
    std::vector<Fact> answers;
  };
  Result<QueryExecution> RunForQuery(const Fact& goal_pattern,
                                     ChaseConfig config = ChaseConfig(),
                                     EvalMode requested = EvalMode::kAuto);

  bool has_run() const { return chase_ != nullptr; }

  // All facts (extensional and derived) matching `pattern`: same predicate
  // and arity, with Null arguments acting as wildcards. Requires has_run().
  std::vector<Fact> Query(const Fact& pattern) const;

  // Answers the explanation query Q_e = {fact}. Requires has_run().
  Result<std::string> Explain(const Fact& fact) const;

  // Same, with entity pseudonymization applied (for texts leaving the
  // trust boundary). Returns the anonymized text plus the mapping.
  Result<AnonymizedText> ExplainAnonymized(
      const Fact& fact,
      const AnonymizerOptions& options = AnonymizerOptions()) const;

  // What-if simulation (the §5 analyst workflow: "simulate the effect of a
  // shock over the financial market"): reasons over the loaded facts plus
  // `hypothetical` facts WITHOUT mutating the application's state, and
  // reports the derived facts that are new relative to the last Run().
  // Each new fact can be explained against the returned chase.
  struct WhatIfResult {
    ChaseResult chase;
    // Derived facts present under the hypothesis but absent from the
    // baseline run, in derivation order.
    std::vector<Fact> new_facts;
  };
  // Requires has_run() (the baseline to diff against).
  Result<WhatIfResult> WhatIf(const std::vector<Fact>& hypothetical,
                              ChaseConfig config = ChaseConfig()) const;

  // Explains a fact against a what-if chase (same pipeline, different
  // instance).
  Result<std::string> ExplainUnder(const WhatIfResult& scenario,
                                   const Fact& fact) const;

  // Negative-constraint violations of the last run.
  const std::vector<ConstraintViolation>& violations() const;

  // JSON exports for front-ends (see io/json.h). Require has_run() where a
  // chase is involved.
  std::string ExportTemplatesJson() const;
  Result<std::string> ExportChaseJson() const;
  Result<std::string> ExportProofJson(const Fact& fact) const;

  const Explainer& explainer() const { return *explainer_; }
  const ChaseResult& chase() const { return *chase_; }
  const std::vector<Fact>& facts() const { return facts_; }

 private:
  KnowledgeGraphApplication() = default;

  std::unique_ptr<Explainer> explainer_;
  std::vector<Fact> facts_;
  std::unique_ptr<ChaseResult> chase_;
};

}  // namespace templex

#endif  // TEMPLEX_APPS_APPLICATION_H_
