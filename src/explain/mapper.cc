#include "explain/mapper.h"

#include <algorithm>
#include <map>
#include <set>

namespace templex {

namespace {

bool IsCriticalPredicate(const StructuralAnalysis& analysis,
                         const std::string& predicate) {
  const std::vector<std::string> criticals = analysis.graph.CriticalNodes();
  return std::find(criticals.begin(), criticals.end(), predicate) !=
         criticals.end();
}

// Rule labels of `steps`, deduplicated, plus per-label step lists.
std::map<std::string, std::vector<FactId>> GroupByRule(
    const Proof& proof, const std::vector<FactId>& steps) {
  std::map<std::string, std::vector<FactId>> groups;
  for (FactId id : steps) {
    groups[proof.derivation(id).rule_label].push_back(id);
  }
  return groups;
}

// When a rule label occurs on several steps, the duplication is legitimate
// only if all those steps feed (as contributor parents) one common
// aggregation step within `steps` — the pattern of several σ1-derived
// controls jointly contributing to σ3. Any other duplication (e.g. two σ3
// iterations of a control chain) cannot be covered by one path, whose rules
// are distinct.
bool DuplicatesAreContributorParallel(const Proof& proof,
                                      const std::vector<FactId>& steps,
                                      const std::vector<FactId>& duplicated) {
  for (FactId agg_step : steps) {
    const Derivation& derivation = proof.derivation(agg_step);
    if (derivation.contributions.size() < 2) continue;
    std::set<FactId> contributor_parents;
    for (const AggregateContribution& c : derivation.contributions) {
      contributor_parents.insert(c.parents.begin(), c.parents.end());
    }
    bool all_covered = true;
    for (FactId dup : duplicated) {
      if (contributor_parents.count(dup) == 0) {
        all_covered = false;
        break;
      }
    }
    if (all_covered) return true;
  }
  return false;
}

}  // namespace

std::vector<ChaseMapper::Segment> ChaseMapper::SplitIntoSegments(
    const Proof& proof) const {
  const ChaseGraph& graph = proof.graph();
  std::vector<Segment> segments;
  std::set<FactId> claimed;
  for (FactId step : proof.steps()) {
    const ChaseNode& node = graph.node(step);
    if (!IsCriticalPredicate(*analysis_, node.fact.predicate)) continue;
    Segment segment;
    segment.critical = step;
    // Walk parents from the critical fact, stopping at extensional facts,
    // at other critical facts (anchors), and at steps already claimed by an
    // earlier segment.
    std::vector<FactId> stack = {step};
    std::set<FactId> visited;
    while (!stack.empty()) {
      FactId current = stack.back();
      stack.pop_back();
      if (!visited.insert(current).second) continue;
      const Derivation& derivation = proof.derivation(current);
      if (derivation.is_extensional()) continue;
      if (current != step) {
        if (IsCriticalPredicate(*analysis_,
                                graph.node(current).fact.predicate)) {
          segment.anchors.push_back(current);
          continue;
        }
        if (claimed.count(current) > 0) continue;
      }
      segment.steps.push_back(current);
      claimed.insert(current);
      for (FactId parent : derivation.parents) stack.push_back(parent);
    }
    std::sort(segment.steps.begin(), segment.steps.end());
    std::sort(segment.anchors.begin(), segment.anchors.end());
    segments.push_back(std::move(segment));
  }
  return segments;
}

const ExplanationTemplate* ChaseMapper::MatchSteps(
    const Proof& proof, const std::vector<FactId>& steps,
    ReasoningPath::Kind kind, const std::string& target_predicate,
    const std::string& anchor_predicate) const {
  std::map<std::string, std::vector<FactId>> groups =
      GroupByRule(proof, steps);
  std::vector<std::string> label_set;
  for (const auto& [label, ids] : groups) {
    label_set.push_back(label);
    if (ids.size() > 1 &&
        !DuplicatesAreContributorParallel(proof, steps, ids)) {
      return nullptr;
    }
  }
  // Aggregation rules whose step really received multiple contributions:
  // these demand the dashed (multi) variant.
  std::set<std::string> multi_rules;
  for (FactId id : steps) {
    const Derivation& derivation = proof.derivation(id);
    if (derivation.contributions.size() > 1) {
      multi_rules.insert(derivation.rule_label);
    }
  }
  const ExplanationTemplate* base_match = nullptr;
  const ExplanationTemplate* any_match = nullptr;
  for (const ExplanationTemplate& tmpl : *templates_) {
    const ReasoningPath& path = tmpl.path;
    if (path.kind != kind) continue;
    if (path.target != target_predicate) continue;
    if (kind == ReasoningPath::Kind::kCycle &&
        path.anchor != anchor_predicate) {
      continue;
    }
    std::vector<std::string> path_rules = path.rules;
    std::sort(path_rules.begin(), path_rules.end());
    if (path_rules != label_set) continue;  // label_set is sorted (std::map)
    std::set<std::string> path_multi(path.multi_agg_rules.begin(),
                                     path.multi_agg_rules.end());
    if (path_multi == multi_rules) return &tmpl;  // exact variant
    if (!path.is_aggregation_variant()) base_match = &tmpl;
    if (any_match == nullptr) any_match = &tmpl;
  }
  return base_match != nullptr ? base_match : any_match;
}

TemplateInstance ChaseMapper::AlignSteps(
    const ExplanationTemplate& tmpl, const Proof& proof,
    const std::vector<FactId>& steps) const {
  std::map<std::string, std::vector<FactId>> groups =
      GroupByRule(proof, steps);
  TemplateInstance instance;
  instance.tmpl = &tmpl;
  instance.alignment.reserve(tmpl.segments.size());
  for (const TemplateSegment& segment : tmpl.segments) {
    instance.alignment.push_back(groups[segment.rule_label]);
  }
  return instance;
}

Result<std::vector<MappedUnit>> ChaseMapper::Map(const Proof& proof) const {
  const ChaseGraph& graph = proof.graph();
  std::vector<MappedUnit> units;
  auto emit_fallbacks = [&units](const std::vector<FactId>& steps) {
    for (FactId id : steps) {
      MappedUnit unit;
      unit.fallback_step = id;
      units.push_back(std::move(unit));
    }
  };

  std::vector<Segment> segments = SplitIntoSegments(proof);
  if (segments.empty()) {
    emit_fallbacks(proof.steps());
    return units;
  }

  // Greedily grow the leading root-grounded composite: absorb as many
  // following segments as a single simple reasoning path can instantiate
  // ("the simple reasoning path that could be applied to the highest number
  // of chase steps", §4.3). Longest extensions are tried first.
  std::vector<FactId> composite = segments[0].steps;
  std::set<FactId> covered_criticals = {segments[0].critical};
  const std::string target_pred =
      graph.node(segments[0].critical).fact.predicate;
  size_t next = 1;
  while (next < segments.size()) {
    size_t best_len = 0;
    for (size_t len = segments.size() - next; len >= 1; --len) {
      std::vector<FactId> candidate = composite;
      std::set<FactId> candidate_criticals = covered_criticals;
      bool anchors_ok = true;
      for (size_t j = next; j < next + len; ++j) {
        for (FactId anchor : segments[j].anchors) {
          if (candidate_criticals.count(anchor) == 0) {
            anchors_ok = false;
            break;
          }
        }
        if (!anchors_ok) break;
        candidate.insert(candidate.end(), segments[j].steps.begin(),
                         segments[j].steps.end());
        candidate_criticals.insert(segments[j].critical);
      }
      if (!anchors_ok) continue;
      std::sort(candidate.begin(), candidate.end());
      const std::string candidate_target =
          graph.node(segments[next + len - 1].critical).fact.predicate;
      if (MatchSteps(proof, candidate, ReasoningPath::Kind::kSimplePath,
                     candidate_target, "") != nullptr) {
        best_len = len;
        break;
      }
    }
    if (best_len == 0) break;
    for (size_t j = next; j < next + best_len; ++j) {
      composite.insert(composite.end(), segments[j].steps.begin(),
                       segments[j].steps.end());
      covered_criticals.insert(segments[j].critical);
    }
    std::sort(composite.begin(), composite.end());
    next += best_len;
  }

  // Close the composite.
  const std::string composite_target =
      graph.node(segments[next - 1].critical).fact.predicate;
  const bool composite_has_anchors = !segments[0].anchors.empty();
  const ExplanationTemplate* composite_tmpl = nullptr;
  if (!composite_has_anchors) {
    composite_tmpl = MatchSteps(proof, composite,
                                ReasoningPath::Kind::kSimplePath,
                                composite_target, "");
  }
  if (composite_tmpl != nullptr) {
    MappedUnit unit;
    unit.instance = AlignSteps(*composite_tmpl, proof, composite);
    units.push_back(std::move(unit));
  } else {
    emit_fallbacks(composite);
  }

  // Remaining segments are cycle applications.
  for (size_t i = next; i < segments.size(); ++i) {
    const Segment& segment = segments[i];
    std::string anchor_pred =
        segment.anchors.empty()
            ? ""
            : graph.node(segment.anchors.front()).fact.predicate;
    const std::string seg_target =
        graph.node(segment.critical).fact.predicate;
    const ExplanationTemplate* tmpl = nullptr;
    if (!segment.anchors.empty()) {
      tmpl = MatchSteps(proof, segment.steps, ReasoningPath::Kind::kCycle,
                        seg_target, anchor_pred);
    } else {
      // A root-grounded segment past the head of the proof (e.g. a second
      // independent shock): match it as a simple path.
      tmpl = MatchSteps(proof, segment.steps,
                        ReasoningPath::Kind::kSimplePath, seg_target, "");
    }
    if (tmpl != nullptr) {
      MappedUnit unit;
      unit.instance = AlignSteps(*tmpl, proof, segment.steps);
      units.push_back(std::move(unit));
    } else {
      emit_fallbacks(segment.steps);
    }
  }
  (void)program_;
  return units;
}

}  // namespace templex
