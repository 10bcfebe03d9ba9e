#include "explain/report.h"

#include "common/number_format.h"
#include "common/string_util.h"

namespace templex {

ReportBuilder& ReportBuilder::Title(std::string title) {
  title_ = std::move(title);
  return *this;
}

ReportBuilder& ReportBuilder::Preamble(std::string text) {
  preamble_ = std::move(text);
  return *this;
}

ReportBuilder& ReportBuilder::AddExplanation(const Fact& fact) {
  sections_.push_back(Section{fact, ""});
  return *this;
}

ReportBuilder& ReportBuilder::AddExplanation(const Fact& fact,
                                             std::string heading) {
  sections_.push_back(Section{fact, std::move(heading)});
  return *this;
}

ReportBuilder& ReportBuilder::AddViolationsAppendix() {
  violations_appendix_ = true;
  return *this;
}

ReportBuilder& ReportBuilder::AddMetricsAppendix(
    obs::MetricsSnapshot snapshot) {
  metrics_appendix_ = true;
  metrics_ = std::move(snapshot);
  return *this;
}

Result<std::string> ReportBuilder::Build() const {
  std::string doc = "# " + title_ + "\n\n";
  if (!preamble_.empty()) {
    doc += preamble_ + "\n\n";
  }
  doc += "_" + std::to_string(chase_->graph.size()) + " facts (" +
         std::to_string(chase_->stats.derived_facts) +
         " derived) over " + std::to_string(chase_->stats.rounds) +
         " reasoning rounds._\n\n";
  for (const Section& section : sections_) {
    std::string heading = section.heading;
    if (heading.empty()) {
      Result<std::string> verbalized =
          explainer_->glossary().VerbalizeFact(section.fact);
      heading = verbalized.ok() ? Capitalize(verbalized.value())
                                : section.fact.ToString();
    }
    doc += "## " + heading + "\n\n";
    Result<std::string> text = explainer_->Explain(*chase_, section.fact);
    if (!text.ok()) return text.status();
    doc += text.value() + "\n\n";
  }
  if (violations_appendix_) {
    doc += "## Data-quality findings\n\n";
    if (chase_->violations.empty()) {
      doc += "No constraint violations detected.\n";
    } else {
      for (const ConstraintViolation& violation : chase_->violations) {
        doc += "- `" + chase_->graph.RuleLabel(violation.rule_index) + "`";
        // Name the facts of the violating match where the glossary can.
        std::vector<std::string> described;
        for (FactId id : violation.facts) {
          Result<std::string> text =
              explainer_->glossary().VerbalizeFact(chase_->graph.node(id).fact);
          described.push_back(text.ok()
                                  ? text.value()
                                  : chase_->graph.node(id).fact.ToString());
        }
        doc += ": " + JoinWithConjunction(described, "; ", "; and ") + "\n";
      }
    }
  }
  // Degradation contract (§4.4 extended): a report built from templates
  // whose enhancement fell back to deterministic wording says so — the
  // degradation is part of the answer, never silently swallowed.
  if (const int64_t degraded = explainer_->degraded_segment_count();
      degraded > 0) {
    doc += "## Degraded explanations\n\n";
    doc += "_" + std::to_string(degraded) +
           " template segment(s) fell back to their deterministic wording "
           "after enhancement failures; the explanations above are complete "
           "but less fluent._\n\n";
    for (const ExplanationTemplate& tmpl : explainer_->templates()) {
      for (const TemplateSegment& segment : tmpl.segments) {
        if (!segment.degraded) continue;
        doc += "- `" + tmpl.name + "` / rule `" + segment.rule_label +
               "`: " + segment.degradation_reason + "\n";
      }
    }
    doc += "\n";
  }
  if (metrics_appendix_ && !metrics_.empty()) {
    doc += "\n## Run metrics\n\n";
    if (!metrics_.counters.empty()) {
      doc += "| counter | value |\n|---|---|\n";
      for (const obs::CounterSnapshot& c : metrics_.counters) {
        doc += "| `" + c.name + "` | " + std::to_string(c.value) + " |\n";
      }
      doc += "\n";
    }
    if (!metrics_.histograms.empty()) {
      doc += "| phase | samples | p50 | p95 | p99 |\n|---|---|---|---|---|\n";
      for (const obs::HistogramSnapshot& h : metrics_.histograms) {
        auto millis = [](double seconds) {
          return FormatDouble(seconds * 1e3) + "ms";
        };
        doc += "| `" + h.name + "` | " + std::to_string(h.count) + " | " +
               millis(h.p50) + " | " + millis(h.p95) + " | " + millis(h.p99) +
               " |\n";
      }
    }
  }
  return doc;
}

}  // namespace templex
