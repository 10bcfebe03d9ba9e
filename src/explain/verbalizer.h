#ifndef TEMPLEX_EXPLAIN_VERBALIZER_H_
#define TEMPLEX_EXPLAIN_VERBALIZER_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/program.h"
#include "engine/proof.h"
#include "engine/rule_plan.h"
#include "explain/glossary.h"
#include "explain/template.h"

namespace templex {

// The verbalizer (§4.2): algorithmically translates Vadalog syntax into
// natural-language sentences of the form "Since {body}, then {head}." using
// the domain glossary. It is used in two modes:
//  - symbolically, on the rules of a reasoning path, producing explanation
//    template segments whose <tokens> map back to rule variables;
//  - on a ground proof, producing the verbose deterministic explanation of
//    an actual instance (the input the LLM baselines paraphrase/summarize).
class Verbalizer {
 public:
  // `program` and `glossary` must outlive the verbalizer.
  Verbalizer(const Program* program, const DomainGlossary* glossary);

  // Verbalizes one rule into a template segment. When `multi_aggregation`
  // is true the rule's aggregation is verbalized with a contributor list
  // ("with <e> given by the sum of <v>"); otherwise the aggregation is
  // truncated (not verbalized), as for non-dashed reasoning paths.
  Result<TemplateSegment> VerbalizeRule(const Rule& rule,
                                        bool multi_aggregation) const;

  // Verbalizes one intensional chase step into a ground sentence: node
  // `step` of `graph` as derived by `derivation` (a proof's
  // Proof::derivation, or the node's primary derivation). The derivation's
  // values are read by slot, through plans().
  Result<std::string> VerbalizeStep(const ChaseGraph& graph, FactId step,
                                    const Derivation& derivation) const;

  // The deterministic explanation of a proof: every chase step verbalized,
  // one sentence per step, in derivation order.
  Result<std::string> VerbalizeProof(const Proof& proof) const;

  // Formatting style for a variable of `rule` (looked up across the body
  // and head atoms; aggregate results and assignments inherit the style of
  // their input variables).
  std::map<std::string, NumberStyle> RuleVariableStyles(
      const Rule& rule) const;

  // The program's rules compiled once (CompileProgramPlans): the slot
  // layout of every derivation a rule stores, by rule index.
  const std::vector<RulePlan>& plans() const { return plans_; }

 private:
  const DomainGlossary* glossary_;
  std::vector<RulePlan> plans_;
  // Per rule, its conditions in rule order compiled onto the binding slots,
  // for grounding condition clauses.
  std::vector<std::vector<SlotCondition>> conditions_;
};

// Natural-language rendering of a comparator ("is higher than").
std::string ComparatorToText(Comparator cmp);

// Natural-language rendering of an aggregate function name ("sum").
std::string AggregateFunctionToText(AggregateFunction fn);

}  // namespace templex

#endif  // TEMPLEX_EXPLAIN_VERBALIZER_H_
