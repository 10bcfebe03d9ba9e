#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>

#include "apps/generators.h"
#include "bench.h"
#include "common/rng.h"
#include "datalog/parser.h"
#include "engine/proof.h"
#include "io/csv.h"
#include "io/glossary_csv.h"
#include "io/json.h"

namespace templex {
namespace bench {

namespace {

// Every per-layer metric a traced run reports, with its unit. A traced run
// prints all of them on every workload; layers a workload does not
// exercise read 0.
struct LayerSpec {
  const char* name;
  const char* unit;
};
constexpr LayerSpec kLayerSpecs[] = {
    {"io.csv.load_ms", "ms"},
    {"datalog.parse_program_ms", "ms"},
    {"explain.create_ms", "ms"},
    {"engine.chase.run_ms", "ms"},
    {"engine.chase.rounds", "count"},
    {"engine.chase.matches", "count"},
    {"engine.chase.derived", "count"},
    {"engine.chase.derived_per_match", "ratio"},
    {"engine.chase.phase.match_ms", "ms"},
    {"engine.chase.phase.head_ms", "ms"},
    {"engine.chase.phase.aggregate_ms", "ms"},
    {"engine.chase.phase.constraints_ms", "ms"},
    {"engine.plan_us", "us"},
    {"engine.plan.qsqr_share", "ratio"},
    {"engine.query.relevant_edb_share", "ratio"},
    {"engine.run_for_query_ms", "ms"},
    {"engine.extend_ms", "ms"},
    {"engine.extend.new_facts", "count"},
    {"apps.whatif_ms", "ms"},
    {"datalog.parse_fact_us", "us"},
    {"engine.validate_goal_us", "us"},
    {"apps.query_us", "us"},
    {"apps.query.scanned_per_answer", "ratio"},
    {"engine.proof_extract_us", "us"},
    {"engine.proof.steps", "count"},
    {"explain.explain_us", "us"},
    {"explain.map_us", "us"},
    {"explain.render_us", "us"},
    {"explain.units", "count"},
    {"explain.fallback_share", "ratio"},
    {"explain.bytes", "bytes"},
    {"explain.report_ms", "ms"},
    {"service.http.parse_us", "us"},
    {"service.http.serialize_us", "us"},
    {"service.admission_us", "us"},
    {"service.admission.shed", "count"},
    {"service.queue_wait_ms", "ms"},
    {"service.queue_wait_p99_ms", "ms"},
    {"service.handle_ms", "ms"},
    {"service.handle_p99_ms", "ms"},
    {"service.worker_busy_share", "ratio"},
    {"service.snapshot.current_us", "us"},
    {"service.snapshot.publish_ms", "ms"},
    {"service.unaccounted_share", "ratio"},
    {"loadgen.self_late_p99_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

const LayerSpec* FindLayerSpec(const std::string& name) {
  for (const LayerSpec& spec : kLayerSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// Shortest text that reads back as the same double; JSON has no NaN/inf.
std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

// Writes `content` to `path`, replacing it.
Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return Status::OK();
}

}  // namespace

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double Samples::CalmMedian(double share) const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t keep = std::min(
      sorted.size(),
      std::max<size_t>(1, static_cast<size_t>(std::ceil(share * sorted.size()))));
  Samples calm;
  for (size_t i = 0; i < keep; ++i) calm.Add(sorted[i]);
  return calm.Median();
}

double Samples::Sum() const {
  double total = 0.0;
  for (double v : values_) total += v;
  return total;
}

void Series::Add(double at_s, double value) {
  points_.emplace_back(at_s, value);
}

std::vector<Samples> Series::Windows() const {
  std::vector<Samples> windows;
  for (const auto& [at, value] : points_) {
    const size_t w = static_cast<size_t>(std::max(0.0, at / window_s_));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].Add(value);
  }
  return windows;
}

double Series::Percentile(double p) const {
  Samples all;
  for (const auto& point : points_) all.Add(point.second);
  return all.Percentile(p);
}

double Series::CalmPercentile(double p, double share) const {
  const std::vector<Samples> windows = Windows();
  Samples sizes;
  for (const Samples& window : windows) {
    sizes.Add(static_cast<double>(window.size()));
  }
  const double min_size = std::max(1.0, sizes.Median() / 2);
  std::vector<std::pair<double, size_t>> ranked;
  for (size_t i = 0; i < windows.size(); ++i) {
    if (static_cast<double>(windows[i].size()) >= min_size) {
      ranked.emplace_back(windows[i].Median(), i);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  const size_t keep = std::min(
      ranked.size(),
      std::max<size_t>(1, static_cast<size_t>(std::ceil(share * ranked.size()))));
  Samples calm;
  for (size_t i = 0; i < keep; ++i) calm.Append(windows[ranked[i].second]);
  return calm.Percentile(p);
}

double Series::Rate() const {
  Samples per_window;
  for (const Samples& window : Windows()) {
    per_window.Add(static_cast<double>(window.size()) / window_s_);
  }
  return per_window.Median();
}

void Report::Param(const std::string& key, const std::string& value) {
  params_.emplace_back(key, value);
}

void Report::Param(const std::string& key, double value) {
  params_.emplace_back(key, FormatNumber(value));
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, const std::string& note) {
  end_to_end_.push_back(Metric{name, value, unit, note});
}

void Report::Layer(const std::string& name, double value) {
  if (FindLayerSpec(name) == nullptr) {
    std::fprintf(stderr, "templex_bench: unknown layer metric %s\n",
                 name.c_str());
    std::abort();
  }
  layers_[name] = value;
}

void Report::Outcome(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::Wrong(const std::string& what) {
  if (correct_) std::fprintf(stderr, "templex_bench: wrong output: %s\n",
                             what.c_str());
  correct_ = false;
}

void Report::Latencies(const Series& millis) {
  EndToEnd("latency_p50_ms", millis.CalmPercentile(50.0, kCalmShare), "ms",
           "calmest tenth of the windows; n=" + std::to_string(millis.size()));
  Param("latency_calm_p90_ms", millis.CalmPercentile(90.0, kCalmShare));
  for (double p : {50.0, 90.0, 99.0}) {
    Param("latency_whole_p" + FormatNumber(p) + "_ms", millis.Percentile(p));
  }
}

void Report::Print(const std::string& workload, bool layers) const {
  for (const auto& [key, value] : params_) {
    std::printf("# %s %s\n", key.c_str(), value.c_str());
  }
  const double failed_frac =
      attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0;
  std::printf("%s failed_frac %s ratio attempted=%lld\n", workload.c_str(),
              FormatNumber(failed_frac).c_str(),
              static_cast<long long>(attempted_));
  for (const Metric& m : end_to_end_) {
    std::printf("%s %s %s %s%s%s\n", workload.c_str(), m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str(),
                m.note.empty() ? "" : " ", m.note.c_str());
  }
  if (layers) {
    for (const LayerSpec& spec : kLayerSpecs) {
      auto it = layers_.find(spec.name);
      std::printf("%s %s %s %s\n", workload.c_str(), spec.name,
                  FormatNumber(it == layers_.end() ? 0.0 : it->second).c_str(),
                  spec.unit);
    }
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  auto add = [&json, &first](const std::string& name, double value,
                             const std::string& unit) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + FormatNumber(value) +
            ", \"unit\": \"" + unit + "\"}";
  };
  if (layers) {
    for (const LayerSpec& spec : kLayerSpecs) {
      auto it = layers_.find(spec.name);
      add(spec.name, it == layers_.end() ? 0.0 : it->second, spec.unit);
    }
  } else {
    for (const Metric& m : end_to_end_) add(m.name, m.value, m.unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string Report::LayersJson() const {
  std::string json = "{";
  bool first = true;
  for (const LayerSpec& spec : kLayerSpecs) {
    auto it = layers_.find(spec.name);
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(spec.name) + "\": {\"value\": " +
            FormatNumber(it == layers_.end() ? 0.0 : it->second) +
            ", \"unit\": \"" + spec.unit + "\"}";
  }
  return json + "}";
}

const Samples* Layers::Find(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? nullptr : &it->second;
}

double Layers::Median(const std::string& name) const {
  const Samples* samples = Find(name);
  return samples == nullptr ? 0.0 : samples->Median();
}

uint64_t Digest(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

const char kCompanyControlSource[] = R"(% Company control: one-share-one-vote control closure.
@goal Control.
sigma1: Own(x, y, s), s > 0.5 -> Control(x, y).
sigma2: Company(x) -> Control(x, x).
sigma3: Control(x, z), Own(z, y, s), ts = sum(s, [z]), ts > 0.5 -> Control(x, y).
)";

const char kStressTestSource[] = R"(% Two-channel stress test: long-term and short-term exposures.
@goal Default.
sigma4: Shock(f, s), HasCapital(f, p1), s > p1 -> Default(f).
sigma5: Default(d), LongTermDebts(d, c, v), el = sum(v) -> Risk(c, el, "long").
sigma6: Default(d), ShortTermDebts(d, c, v), es = sum(v) -> Risk(c, es, "short").
sigma7: Risk(c, e, t), HasCapital(c, p2), l = sum(e, [t]), l > p2 -> Default(c).
)";

const char kGoldenPowerSource[] = R"(% Golden powers: review foreign acquisitions of strategic companies.
@goal Review.
sigma1: Own(x, y, s), s > 0.5 -> Control(x, y).
sigma2: Company(x) -> Control(x, x).
sigma3: Control(x, z), Own(z, y, s), ts = sum(s, [z]), ts > 0.5 -> Control(x, y).
gp1: Control(x, y), Strategic(y), Foreign(x) -> GoldenPower(x, y).
gp2: GoldenPower(x, y), Acquisition(x, y, d) -> Review(x, y, d).
)";

Result<InputFiles> WriteInputs(const std::string& dir, const std::string& name,
                               const std::string& program_source,
                               const std::vector<Fact>& facts,
                               const std::string& glossary_csv) {
  InputFiles files{dir + "/" + name + ".vada", dir + "/" + name + ".csv",
                   dir + "/" + name + ".glossary.csv"};
  TEMPLEX_RETURN_IF_ERROR(WriteFile(files.program, program_source));
  TEMPLEX_RETURN_IF_ERROR(SaveFactsCsv(files.facts, facts));
  TEMPLEX_RETURN_IF_ERROR(WriteFile(files.glossary, glossary_csv));
  return files;
}

Result<std::unique_ptr<KnowledgeGraphApplication>> LoadApp(
    const InputFiles& files, const ChaseConfig& config, Layers* layers,
    int64_t req, const std::string& parent) {
  Result<Program> program = layers->Millis(
      "datalog.parse_program_ms", req, parent, [&]() -> Result<Program> {
        Result<std::string> source = ReadFileToString(files.program);
        if (!source.ok()) return source.status();
        return ParseProgram(source.value());
      });
  if (!program.ok()) return program.status();
  Result<DomainGlossary> glossary = LoadGlossaryCsv(files.glossary);
  if (!glossary.ok()) return glossary.status();
  ExplainerOptions explainer_options;
  explainer_options.metrics = config.metrics;
  explainer_options.tracer = config.tracer;
  auto app = layers->Millis("explain.create_ms", req, parent, [&] {
    return KnowledgeGraphApplication::Create(std::move(program).value(),
                                             std::move(glossary).value(),
                                             explainer_options);
  });
  if (!app.ok()) return app.status();
  Result<std::vector<Fact>> facts = layers->Millis(
      "io.csv.load_ms", req, parent, [&] { return LoadFactsCsv(files.facts); });
  if (!facts.ok()) return facts.status();
  app.value()->AddFacts(std::move(facts).value());
  return app;
}

Result<std::unique_ptr<KnowledgeGraphApplication>> BuildApp(
    const InputFiles& files, const ChaseConfig& config, Layers* layers,
    int64_t req) {
  auto app = LoadApp(files, config, layers, req, "setup");
  if (!app.ok()) return app;
  const obs::MetricsSnapshot before = config.metrics != nullptr
                                          ? config.metrics->Snapshot()
                                          : obs::MetricsSnapshot();
  Status ran = layers->Millis("engine.chase.run_ms", req, "setup",
                              [&] { return app.value()->Run(config); });
  if (!ran.ok()) return ran;
  AddChaseLayers(app.value()->chase(), before, layers);
  return app;
}

void AddChaseLayers(const ChaseResult& chase,
                    const obs::MetricsSnapshot& before, Layers* layers) {
  for (const char* phase : {"match", "head", "aggregate", "constraints"}) {
    const std::string name = std::string("chase.phase.") + phase + ".seconds";
    const obs::HistogramSnapshot* after_h = chase.metrics.FindHistogram(name);
    const obs::HistogramSnapshot* before_h = before.FindHistogram(name);
    const double ms = ((after_h != nullptr ? after_h->sum : 0.0) -
                       (before_h != nullptr ? before_h->sum : 0.0)) *
                      1000.0;
    layers->Add(std::string("engine.chase.phase.") + phase + "_ms", ms);
  }
  const ChaseStats& stats = chase.stats;
  layers->Add("engine.chase.rounds", static_cast<double>(stats.rounds));
  layers->Add("engine.chase.matches", static_cast<double>(stats.matches));
  layers->Add("engine.chase.derived", static_cast<double>(stats.derived_facts));
  layers->Add("engine.chase.derived_per_match",
              static_cast<double>(stats.derived_facts) /
                  std::max<double>(1.0, static_cast<double>(stats.matches)));
}

void ReportSetupLayers(const Layers& layers, Report* report) {
  for (const char* name :
       {"io.csv.load_ms", "datalog.parse_program_ms", "explain.create_ms",
        "engine.chase.run_ms", "engine.chase.rounds", "engine.chase.matches",
        "engine.chase.derived", "engine.chase.derived_per_match",
        "engine.chase.phase.match_ms", "engine.chase.phase.head_ms",
        "engine.chase.phase.aggregate_ms",
        "engine.chase.phase.constraints_ms"}) {
    report->Layer(name, layers.Median(name));
  }
}

Result<std::string> TimedExplain(const KnowledgeGraphApplication& app,
                                 const Fact& fact, Layers* layers, int64_t req,
                                 const std::string& parent) {
  Result<std::string> text = layers->Micros(
      "explain.explain_us", req, parent, [&] { return app.Explain(fact); });
  if (text.ok()) {
    layers->Add("explain.bytes", static_cast<double>(text.value().size()));
  }
  return text;
}

void AddProofLayers(const ChaseResult& chase, const Fact& fact, Layers* layers,
                    int64_t req, const std::string& parent) {
  Result<FactId> id = chase.Find(fact);
  if (!id.ok() || chase.graph.node(id.value()).is_extensional()) return;
  Proof proof = layers->Micros("engine.proof_extract_us", req, parent, [&] {
    return Proof::Extract(chase.graph, id.value());
  });
  layers->Add("engine.proof.steps", proof.num_chase_steps());
}

void ReportExplainLayers(const Layers& layers,
                         const obs::MetricsSnapshot& registry, Report* report) {
  for (const char* name : {"engine.proof_extract_us", "engine.proof.steps",
                           "explain.explain_us", "explain.bytes"}) {
    report->Layer(name, layers.Median(name));
  }
  for (const char* phase : {"map", "render"}) {
    const obs::HistogramSnapshot* seconds = registry.FindHistogram(
        std::string("explain.phase.") + phase + ".seconds");
    report->Layer(std::string("explain.") + phase + "_us",
                  seconds != nullptr ? seconds->p50 * 1e6 : 0.0);
  }
  auto count = [&registry](const char* name) {
    const obs::CounterSnapshot* counter = registry.FindCounter(name);
    return counter != nullptr ? static_cast<double>(counter->value) : 0.0;
  };
  const double units =
      count("explain.units.template") + count("explain.units.fallback");
  report->Layer("explain.units",
                units / std::max(1.0, count("explain.queries")));
  report->Layer("explain.fallback_share",
                count("explain.units.fallback") / std::max(1.0, units));
}

namespace {

// bench/bench_micro_engine's OwnershipEdb recipe with its fixed seed 7:
// chains and joint-control stars in proportion to the company count, plus
// `noise_edges` minority edges.
std::vector<Fact> OwnershipRecipe(int companies, int noise_edges) {
  OwnershipNetworkOptions options;
  options.companies = companies;
  options.chains = companies / 10 + 1;
  options.chain_length = 5;
  options.stars = companies / 15 + 1;
  options.noise_edges = noise_edges;
  Rng rng(kRecipeSeed);
  return GenerateOwnershipNetwork(options, &rng);
}

}  // namespace

void RenameEntities(std::vector<Fact>* facts, uint64_t seed) {
  // Names are permuted among names of the same length, so every seed's
  // inputs, answers and explanations also have the same sizes.
  std::map<size_t, std::set<std::string>> names_by_length;
  for (const Fact& fact : *facts) {
    for (const Value& arg : fact.args) {
      if (arg.is_string()) {
        names_by_length[arg.string_value().size()].insert(arg.string_value());
      }
    }
  }
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::map<std::string, std::string> rename;
  for (const auto& [length, names] : names_by_length) {
    const std::vector<std::string> from(names.begin(), names.end());
    std::vector<std::string> to = from;
    rng.Shuffle(to);
    for (size_t i = 0; i < from.size(); ++i) rename[from[i]] = to[i];
  }
  for (Fact& fact : *facts) {
    for (Value& arg : fact.args) {
      if (arg.is_string()) arg = Value::String(rename[arg.string_value()]);
    }
  }
}

std::vector<Fact> DenseOwnership(int companies, uint64_t seed) {
  std::vector<Fact> facts = OwnershipRecipe(companies, companies * 2);
  RenameEntities(&facts, seed);
  return facts;
}

std::vector<Fact> SparseOwnership(int companies, uint64_t seed) {
  std::vector<Fact> facts = OwnershipRecipe(companies, companies / 2);
  RenameEntities(&facts, seed);
  return facts;
}

Zipf::Zipf(int n, double s) {
  double total = 0.0;
  for (int k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Draw(double uniform01) const {
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), uniform01);
  if (it == cdf_.end()) return static_cast<int>(cdf_.size()) - 1;
  return static_cast<int>(it - cdf_.begin());
}

Status WriteTraceArtifacts(const Options& options, const obs::Tracer& tracer,
                           const Report& report,
                           const std::string& registry_json) {
  const std::string base = options.trace_dir + "/" + options.workload;
  TEMPLEX_RETURN_IF_ERROR(
      WriteFile(base + ".trace.json", TraceEventsToJson(tracer.events())));
  return WriteFile(base + ".layers.json",
                   "{\"workload\": \"" + options.workload +
                       "\", \"seed\": " + std::to_string(options.seed) +
                       ", \"layers\": " + report.LayersJson() +
                       ", \"registry\": " + registry_json + "}\n");
}

}  // namespace bench
}  // namespace templex
