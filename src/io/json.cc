#include "io/json.h"

#include <cstdio>

#include "common/number_format.h"

namespace templex {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void JsonWriter::Separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (has_element_.back()) out_ += ",";
  has_element_.back() = true;
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += "{";
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += "}";
  has_element_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_ += "[";
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += "]";
  has_element_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  Separate();
  out_ += "\"" + JsonEscape(key) + "\":";
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  Separate();
  out_ += "\"" + JsonEscape(value) + "\"";
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  Separate();
  out_ += FormatDouble(value);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Separate();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::TemplexValue(const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      return Null();
    case Value::Kind::kBool:
      return Bool(value.bool_value());
    case Value::Kind::kInt:
      return Int(value.int_value());
    case Value::Kind::kDouble:
      return Number(value.double_value());
    case Value::Kind::kString:
      return String(value.string_value());
    case Value::Kind::kLabeledNull:
      return String(value.ToString());
  }
  return Null();
}

namespace {

// The "rule" and "parents" members every derivation carries.
void WriteRuleAndParents(JsonWriter& json, const ChaseGraph& graph,
                         const Derivation& derivation) {
  json.Key("rule").String(graph.RuleLabel(derivation.rule_index));
  json.Key("parents").BeginArray();
  for (FactId parent : derivation.parents) json.Int(parent);
  json.EndArray();
}

// Writes node `id` of `graph` as derived by `derivation` (its primary
// derivation, or a proof's Proof::derivation).
void WriteFactNode(JsonWriter& json, const ChaseGraph& graph, FactId id,
                   const Derivation& derivation) {
  const ChaseNode& node = graph.node(id);
  json.BeginObject();
  json.Key("id").Int(id);
  json.Key("predicate").String(node.fact.predicate);
  json.Key("args").BeginArray();
  for (const Value& arg : node.fact.args) json.TemplexValue(arg);
  json.EndArray();
  if (!derivation.is_extensional()) {
    WriteRuleAndParents(json, graph, derivation);
    if (!derivation.contributions.empty()) {
      json.Key("contributions").BeginArray();
      for (const AggregateContribution& c : derivation.contributions) {
        json.BeginObject();
        json.Key("input").TemplexValue(c.input);
        json.Key("parents").BeginArray();
        for (FactId parent : c.parents) json.Int(parent);
        json.EndArray();
        json.EndObject();
      }
      json.EndArray();
    }
    // Alternatives are summarized: their rule and parents, no
    // contributions.
    if (!node.alternatives.empty()) {
      json.Key("alternatives").BeginArray();
      for (const Derivation& alt : node.alternatives) {
        json.BeginObject();
        WriteRuleAndParents(json, graph, alt);
        json.EndObject();
      }
      json.EndArray();
    }
  }
  json.EndObject();
}

}  // namespace

std::string ChaseGraphToJson(const ChaseGraph& graph) {
  JsonWriter json;
  json.BeginObject();
  json.Key("facts").BeginArray();
  for (FactId id = 0; id < graph.size(); ++id) {
    WriteFactNode(json, graph, id, graph.node(id).derivation);
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string ProofToJson(const Proof& proof) {
  JsonWriter json;
  json.BeginObject();
  json.Key("goal").Int(proof.goal());
  json.Key("chase_steps").Int(proof.num_chase_steps());
  json.Key("rules").BeginArray();
  for (const std::string& label : proof.RuleLabelSequence()) {
    json.String(label);
  }
  json.EndArray();
  json.Key("edb").BeginArray();
  for (FactId id : proof.edb_facts()) {
    WriteFactNode(json, proof.graph(), id, proof.derivation(id));
  }
  json.EndArray();
  json.Key("steps").BeginArray();
  for (FactId id : proof.steps()) {
    WriteFactNode(json, proof.graph(), id, proof.derivation(id));
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string TemplatesToJson(
    const std::vector<ExplanationTemplate>& templates) {
  JsonWriter json;
  json.BeginArray();
  for (const ExplanationTemplate& tmpl : templates) {
    json.BeginObject();
    json.Key("name").String(tmpl.name);
    json.Key("kind").String(tmpl.path.is_cycle() ? "cycle" : "simple_path");
    json.Key("target").String(tmpl.path.target);
    if (tmpl.path.is_cycle()) json.Key("anchor").String(tmpl.path.anchor);
    json.Key("rules").BeginArray();
    for (const std::string& label : tmpl.path.rules) json.String(label);
    json.EndArray();
    json.Key("aggregation_variant").Bool(tmpl.path.is_aggregation_variant());
    json.Key("deterministic").String(tmpl.DeterministicText());
    json.Key("enhanced").String(tmpl.EffectiveText());
    json.EndObject();
  }
  json.EndArray();
  return json.str();
}

std::string AnalysisToJson(const StructuralAnalysis& analysis) {
  JsonWriter json;
  json.BeginObject();
  json.Key("predicates").BeginArray();
  for (const std::string& predicate : analysis.graph.predicates()) {
    json.String(predicate);
  }
  json.EndArray();
  json.Key("leaf").String(analysis.graph.leaf());
  json.Key("critical").BeginArray();
  for (const std::string& predicate : analysis.graph.CriticalNodes()) {
    json.String(predicate);
  }
  json.EndArray();
  json.Key("edges").BeginArray();
  for (const DependencyEdge& edge : analysis.graph.edges()) {
    json.BeginObject();
    json.Key("from").String(edge.from);
    json.Key("to").String(edge.to);
    json.Key("rule").String(edge.rule_label);
    json.EndObject();
  }
  json.EndArray();
  json.Key("paths").BeginArray();
  for (const ReasoningPath& path : analysis.catalog) {
    json.BeginObject();
    json.Key("name").String(path.name);
    json.Key("kind").String(path.is_cycle() ? "cycle" : "simple_path");
    json.Key("rules").BeginArray();
    for (const std::string& label : path.rules) json.String(label);
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

std::string MetricsSnapshotToJson(const obs::MetricsSnapshot& snapshot) {
  JsonWriter json;
  json.BeginObject();
  json.Key("counters").BeginObject();
  for (const obs::CounterSnapshot& c : snapshot.counters) {
    json.Key(c.name).Int(c.value);
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const obs::GaugeSnapshot& g : snapshot.gauges) {
    json.Key(g.name).Number(g.value);
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    json.Key(h.name).BeginObject();
    json.Key("count").Int(h.count);
    json.Key("sum").Number(h.sum);
    json.Key("min").Number(h.min);
    json.Key("max").Number(h.max);
    json.Key("p50").Number(h.p50);
    json.Key("p95").Number(h.p95);
    json.Key("p99").Number(h.p99);
    // Full bucket layout (buckets has a trailing overflow cell), so offline
    // analyses (stats SummarizeHistogram boxplots) can run from the file.
    json.Key("bounds").BeginArray();
    for (double bound : h.bounds) json.Number(bound);
    json.EndArray();
    json.Key("buckets").BeginArray();
    for (int64_t bucket : h.buckets) json.Int(bucket);
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

std::string TraceEventsToJson(const std::vector<obs::TraceEvent>& events) {
  JsonWriter json;
  json.BeginArray();
  for (const obs::TraceEvent& event : events) {
    json.BeginObject();
    json.Key("name").String(event.name);
    json.Key("cat").String("templex");
    json.Key("ph").String("X");
    json.Key("ts").Number(event.ts_micros);
    json.Key("dur").Number(event.dur_micros);
    json.Key("pid").Int(1);
    json.Key("tid").Int(event.tid);
    json.Key("args").BeginObject();
    json.Key("depth").Int(event.depth);
    for (const auto& [key, value] : event.attributes) {
      json.Key(key).String(value);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  return json.str();
}

}  // namespace templex
