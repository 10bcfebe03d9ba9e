#include "explain/explainer.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "explain/enhancer.h"
#include "explain/template_generator.h"
#include "obs/stage.h"

namespace templex {

namespace {

// The slot values of the match behind one contribution to `step`, an
// aggregation: the step's values with the eval slots (body and assignment
// variables) rebuilt from the contribution's parent facts — stored in
// body-atom order — through the rule's atom plans, then its assignments.
// A slot that cannot be rebuilt keeps the step's value: the aggregate
// result, an existential, an assignment that fails to evaluate, or every
// slot when the parents do not fit the body.
std::vector<Value> ContributionSlots(const RulePlan& plan,
                                     const Derivation& step,
                                     const AggregateContribution& c,
                                     const ChaseGraph& graph) {
  std::vector<Value> slots = step.values;
  if (slots.size() != plan.binding_names.size() ||
      c.parents.size() < plan.body.size()) {
    return slots;
  }
  for (size_t i = 0; i < plan.body.size(); ++i) {
    const std::vector<Value>& args = graph.node(c.parents[i]).fact.args;
    if (args.size() != plan.body[i].terms.size()) return step.values;
    for (size_t pos = 0; pos < args.size(); ++pos) {
      const TermPlan& term = plan.body[i].terms[pos];
      if (term.binds) slots[static_cast<size_t>(term.slot)] = args[pos];
    }
  }
  for (const SlotAssignment& a : plan.assignments) {
    Result<Value> v = EvalSlotExpr(a.expr, slots.data());
    if (v.ok()) slots[static_cast<size_t>(a.slot)] = std::move(v).value();
  }
  return slots;
}

// Joins formatted values into "a", "a and b", or "a, b and c", collapsing
// the list when every element is identical.
std::string JoinValues(const std::vector<std::string>& values) {
  if (values.empty()) return "";
  bool all_equal = std::all_of(values.begin(), values.end(),
                               [&values](const std::string& v) {
                                 return v == values.front();
                               });
  if (all_equal) return values.front();
  return JoinWithConjunction(values, ", ", " and ");
}

}  // namespace

Explainer::Explainer(Program program, DomainGlossary glossary,
                     ExplainerOptions options)
    : program_(std::move(program)),
      glossary_(std::move(glossary)),
      options_(options) {}

Result<std::unique_ptr<Explainer>> Explainer::Create(
    Program program, DomainGlossary glossary, ExplainerOptions options) {
  // Every predicate of the program must have a glossary entry, or template
  // generation would fail later with a less direct error.
  for (const std::string& predicate : program.Predicates()) {
    if (!glossary.Has(predicate)) {
      return Status::InvalidArgument("glossary has no entry for predicate '" +
                                     predicate + "'");
    }
  }
  obs::Span create_span(options.tracer, "explain.create");
  TEMPLEX_RETURN_IF_ERROR(CheckInterruption(options.deadline, options.cancel,
                                            "explainer pipeline build"));
  if (options.analyzer.metrics == nullptr) {
    options.analyzer.metrics = options.metrics;
  }
  if (options.analyzer.tracer == nullptr) {
    options.analyzer.tracer = options.tracer;
  }
  std::unique_ptr<Explainer> explainer(
      new Explainer(std::move(program), std::move(glossary), options));

  Result<StructuralAnalysis> analysis = [&] {
    obs::StageScope stage(options.metrics, options.tracer, "explain.analyze",
                          "explain.phase.analysis.seconds");
    return AnalyzeProgram(explainer->program_, options.analyzer);
  }();
  if (!analysis.ok()) return analysis.status();
  explainer->analysis_ = std::move(analysis).value();
  TEMPLEX_RETURN_IF_ERROR(CheckInterruption(options.deadline, options.cancel,
                                            "template generation"));

  TemplateGenerator generator(&explainer->program_, &explainer->glossary_);
  Result<std::vector<ExplanationTemplate>> templates = [&] {
    obs::StageScope stage(options.metrics, options.tracer,
                          "explain.generate_templates",
                          "explain.phase.template_generation.seconds");
    return generator.Generate(explainer->analysis_);
  }();
  if (!templates.ok()) return templates.status();
  explainer->templates_ = std::move(templates).value();
  if (options.metrics != nullptr) {
    options.metrics->counter("explain.templates.generated")
        ->Increment(static_cast<int64_t>(explainer->templates_.size()));
  }

  if (options.enhance) {
    obs::StageScope stage(options.metrics, options.tracer, "explain.enhance",
                          "explain.phase.enhancement.seconds");
    TemplateEnhancer enhancer;
    LlmEnhancementOptions enhancement;
    enhancement.deadline = options.deadline;
    enhancement.cancel = options.cancel;
    enhancement.event_log = options.event_log;
    // Segments whose LLM rewrite failed the token-preservation (omission)
    // check and kept their deterministic text.
    int omission_fallbacks = 0;
    for (ExplanationTemplate& tmpl : explainer->templates_) {
      if (options.enhancement_llm != nullptr) {
        int fallbacks = 0;
        TEMPLEX_RETURN_IF_ERROR(enhancer.EnhanceWithLlm(
            &tmpl, options.enhancement_llm, enhancement, &fallbacks));
        omission_fallbacks += fallbacks;
      } else {
        TEMPLEX_RETURN_IF_ERROR(
            enhancer.Enhance(&tmpl, options.enhancement_variant));
      }
    }
    if (options.metrics != nullptr) {
      options.metrics->counter("explain.enhance.omission_fallbacks")
          ->Increment(omission_fallbacks);
      // Full degradation accounting (§4.4 extended): every segment that
      // kept deterministic text because its enhancement failed, whatever
      // the failure mode.
      options.metrics->counter("explain.enhance.degraded_segments")
          ->Increment(explainer->degraded_segment_count());
    }
  }

  explainer->verbalizer_ = std::make_unique<Verbalizer>(
      &explainer->program_, &explainer->glossary_);
  explainer->mapper_ = std::make_unique<ChaseMapper>(
      &explainer->program_, &explainer->analysis_, &explainer->templates_);
  return explainer;
}

Result<std::string> Explainer::Explain(const ChaseResult& chase,
                                       const Fact& fact) const {
  Result<FactId> id = chase.Find(fact);
  if (!id.ok()) return id.status();
  if (chase.graph.node(id.value()).is_extensional()) {
    Result<std::string> text = glossary_.VerbalizeFact(fact);
    if (!text.ok()) return text.status();
    return text.value() + " This is part of the factual knowledge.";
  }
  return ExplainProof(Proof::Extract(chase.graph, id.value()));
}

Result<std::string> Explainer::ExplainProof(const Proof& proof) const {
  obs::Span query_span(options_.tracer, "explain.query");
  TEMPLEX_RETURN_IF_ERROR(CheckInterruption(options_.deadline,
                                            options_.cancel,
                                            "explanation query"));
  if (options_.metrics != nullptr) {
    options_.metrics->counter("explain.queries")->Increment();
  }
  Result<std::vector<MappedUnit>> units = [&] {
    obs::StageScope stage(options_.metrics, options_.tracer, "explain.map",
                          "explain.phase.map.seconds");
    return MapProof(proof);
  }();
  if (!units.ok()) return units.status();
  obs::StageScope render_stage(options_.metrics, options_.tracer,
                               "explain.render",
                               "explain.phase.render.seconds");
  obs::Counter* template_units = nullptr;
  obs::Counter* fallback_units = nullptr;
  if (options_.metrics != nullptr) {
    template_units = options_.metrics->counter("explain.units.template");
    fallback_units = options_.metrics->counter("explain.units.fallback");
  }
  std::string text;
  for (const MappedUnit& unit : units.value()) {
    if (template_units != nullptr) {
      (unit.is_fallback() ? fallback_units : template_units)->Increment();
    }
    Result<std::string> rendered =
        RenderUnit(proof, unit, options_.enhance);
    if (!rendered.ok()) return rendered.status();
    if (!text.empty()) text += " ";
    text += rendered.value();
  }
  return text;
}

Result<std::vector<std::string>> Explainer::ExplainAllDerivations(
    const ChaseResult& chase, const Fact& fact) const {
  Result<FactId> id = chase.Find(fact);
  if (!id.ok()) return id.status();
  std::vector<std::string> stories;
  Result<std::string> primary = Explain(chase, fact);
  if (!primary.ok()) return primary.status();
  stories.push_back(std::move(primary).value());
  for (const Derivation& alternative :
       chase.graph.node(id.value()).alternatives) {
    Result<std::string> text = ExplainProof(
        Proof::Extract(chase.graph, id.value(), alternative));
    if (!text.ok()) return text.status();
    stories.push_back(std::move(text).value());
  }
  return stories;
}

Result<std::string> Explainer::DeterministicExplanation(
    const Proof& proof) const {
  return verbalizer_->VerbalizeProof(proof);
}

Result<std::vector<MappedUnit>> Explainer::MapProof(const Proof& proof) const {
  return mapper_->Map(proof);
}

int64_t Explainer::degraded_segment_count() const {
  int64_t degraded = 0;
  for (const ExplanationTemplate& tmpl : templates_) {
    for (const TemplateSegment& segment : tmpl.segments) {
      if (segment.degraded) ++degraded;
    }
  }
  return degraded;
}

Result<std::string> Explainer::RenderUnit(const Proof& proof,
                                          const MappedUnit& unit,
                                          bool enhanced) const {
  const ChaseGraph& graph = proof.graph();
  if (unit.is_fallback()) {
    return verbalizer_->VerbalizeStep(graph, unit.fallback_step,
                                      proof.derivation(unit.fallback_step));
  }
  const TemplateInstance& instance = *unit.instance;
  const ExplanationTemplate& tmpl = *instance.tmpl;
  std::string text;
  for (size_t si = 0; si < tmpl.segments.size(); ++si) {
    const TemplateSegment& segment = tmpl.segments[si];
    const std::vector<FactId>& steps = instance.alignment[si];
    if (steps.empty()) {
      return Status::Internal("template segment for rule '" +
                              segment.rule_label +
                              "' aligned to no chase step");
    }
    const int rule_index = program_.RuleIndex(segment.rule_label);
    if (rule_index < 0) {
      return Status::Internal("unknown rule '" + segment.rule_label + "'");
    }
    const RulePlan& plan =
        verbalizer_->plans()[static_cast<size_t>(rule_index)];
    // Per-contribution slots for multi-aggregation segments: tokens of
    // body variables expand to one value per contributor; the others
    // repeat the step's value, which JoinValues collapses.
    std::vector<std::vector<Value>> contributions;
    if (segment.multi_aggregation && steps.size() == 1) {
      const Derivation& step = proof.derivation(steps.front());
      for (const AggregateContribution& c : step.contributions) {
        contributions.push_back(ContributionSlots(plan, step, c, graph));
      }
    }
    std::string sentence = segment.effective_text();
    if (enhanced && segment.enhanced_text.empty()) {
      sentence = segment.text;  // enhancement fell back on this segment
    } else if (!enhanced) {
      sentence = segment.text;
    }
    for (const TemplateToken& token : segment.tokens) {
      const int slot = FindSlot(plan.binding_names, token.variable);
      std::vector<std::string> values;
      auto add_value = [&](const std::vector<Value>& slots) {
        if (slot >= 0 && static_cast<size_t>(slot) < slots.size()) {
          values.push_back(
              DomainGlossary::FormatValue(slots[slot], token.style));
        }
      };
      for (const std::vector<Value>& slots : contributions) add_value(slots);
      if (contributions.empty()) {
        for (FactId step : steps) add_value(proof.derivation(step).values);
      }
      if (values.empty()) {
        return Status::Internal("token <" + token.variable +
                                "> of rule '" + segment.rule_label +
                                "' has no bound value");
      }
      sentence =
          ReplaceAll(sentence, "<" + token.variable + ">", JoinValues(values));
    }
    if (!text.empty()) text += " ";
    text += sentence;
  }
  return text;
}

}  // namespace templex
