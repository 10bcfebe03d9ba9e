#include "apps/application.h"

#include "io/json.h"

namespace templex {

Result<std::unique_ptr<KnowledgeGraphApplication>>
KnowledgeGraphApplication::Create(Program program, DomainGlossary glossary,
                                  ExplainerOptions options) {
  Result<std::unique_ptr<Explainer>> explainer =
      Explainer::Create(std::move(program), std::move(glossary), options);
  if (!explainer.ok()) return explainer.status();
  std::unique_ptr<KnowledgeGraphApplication> app(
      new KnowledgeGraphApplication());
  app->explainer_ = std::move(explainer).value();
  return app;
}

void KnowledgeGraphApplication::AddFacts(std::vector<Fact> facts) {
  facts_.insert(facts_.end(), std::make_move_iterator(facts.begin()),
                std::make_move_iterator(facts.end()));
  chase_.reset();
}

Status KnowledgeGraphApplication::Run(ChaseConfig config) {
  Result<ChaseResult> result =
      ChaseEngine(config).Run(explainer_->program(), facts_);
  if (!result.ok()) return result.status();
  chase_ = std::make_unique<ChaseResult>(std::move(result).value());
  return Status::OK();
}

Result<KnowledgeGraphApplication::QueryExecution>
KnowledgeGraphApplication::RunForQuery(const Fact& goal_pattern,
                                       ChaseConfig config,
                                       EvalMode requested) {
  Result<QueryResult> result = QueryEvaluator(std::move(config))
                                   .Evaluate(explainer_->program(), facts_,
                                             goal_pattern, requested);
  if (!result.ok()) return result.status();
  QueryResult& query = result.value();
  chase_ = std::make_unique<ChaseResult>(std::move(query.chase));
  return QueryExecution{std::move(query.plan), std::move(query.stats),
                        std::move(query.answers)};
}

std::vector<Fact> KnowledgeGraphApplication::Query(
    const Fact& pattern) const {
  if (chase_ == nullptr) return {};
  return chase_->Match(pattern);
}

Result<std::string> KnowledgeGraphApplication::Explain(
    const Fact& fact) const {
  if (chase_ == nullptr) {
    return Status::FailedPrecondition("Run() the application first");
  }
  return explainer_->Explain(*chase_, fact);
}

Result<AnonymizedText> KnowledgeGraphApplication::ExplainAnonymized(
    const Fact& fact, const AnonymizerOptions& options) const {
  if (chase_ == nullptr) {
    return Status::FailedPrecondition("Run() the application first");
  }
  Result<FactId> id = chase_->Find(fact);
  if (!id.ok()) return id.status();
  Proof proof = Proof::Extract(chase_->graph, id.value());
  Result<std::string> text = explainer_->ExplainProof(proof);
  if (!text.ok()) return text.status();
  return AnonymizeExplanation(text.value(), proof, options);
}

Result<KnowledgeGraphApplication::WhatIfResult>
KnowledgeGraphApplication::WhatIf(const std::vector<Fact>& hypothetical,
                                  ChaseConfig config) const {
  if (chase_ == nullptr) {
    return Status::FailedPrecondition(
        "Run() the application first: the what-if diffs against the "
        "baseline chase");
  }
  // Monotone programs extend the baseline incrementally (only the delta is
  // re-derived); programs that Extend refuses, those with negation in a
  // deriving rule, re-chase base plus hypothesis. Any other error is the
  // what-if's own and is returned as is.
  const Program& program = explainer_->program();
  std::vector<Fact> rechased;
  const bool rechase = HasDerivingNegation(program);
  if (rechase) {
    rechased = facts_;
    rechased.insert(rechased.end(), hypothetical.begin(), hypothetical.end());
  }
  Result<ChaseResult> result =
      rechase ? ChaseEngine(config).Run(program, rechased)
              : ChaseEngine(config).Extend(*chase_, program, hypothetical);
  if (!result.ok()) return result.status();
  WhatIfResult scenario;
  scenario.chase = std::move(result).value();
  for (int id = 0; id < scenario.chase.graph.size(); ++id) {
    const ChaseNode& node = scenario.chase.graph.node(id);
    if (node.is_extensional()) continue;
    if (!chase_->graph.Find(node.fact).has_value()) {
      scenario.new_facts.push_back(node.fact);
    }
  }
  return scenario;
}

Result<std::string> KnowledgeGraphApplication::ExplainUnder(
    const WhatIfResult& scenario, const Fact& fact) const {
  return explainer_->Explain(scenario.chase, fact);
}

const std::vector<ConstraintViolation>&
KnowledgeGraphApplication::violations() const {
  static const std::vector<ConstraintViolation> kEmpty;
  return chase_ == nullptr ? kEmpty : chase_->violations;
}

std::string KnowledgeGraphApplication::ExportTemplatesJson() const {
  return TemplatesToJson(explainer_->templates());
}

Result<std::string> KnowledgeGraphApplication::ExportChaseJson() const {
  if (chase_ == nullptr) {
    return Status::FailedPrecondition("Run() the application first");
  }
  return ChaseGraphToJson(chase_->graph);
}

Result<std::string> KnowledgeGraphApplication::ExportProofJson(
    const Fact& fact) const {
  if (chase_ == nullptr) {
    return Status::FailedPrecondition("Run() the application first");
  }
  Result<FactId> id = chase_->Find(fact);
  if (!id.ok()) return id.status();
  Proof proof = Proof::Extract(chase_->graph, id.value());
  return ProofToJson(proof);
}

}  // namespace templex
