// templex_bench: end-to-end and per-layer benchmark for the paths analysts
// hit — the reasoning daemon answering queries and explanations, the
// nightly batch report, and an interactive analyst session. README.md in
// this directory has the workload table, the metric definitions and the
// layer -> end-to-end map.
#ifndef TEMPLEX_BENCH_BENCH_H_
#define TEMPLEX_BENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/application.h"
#include "common/status.h"
#include "engine/chase.h"
#include "engine/fact.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace templex {
namespace bench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // traced runs write <workload>.{trace,layers}.json
  std::string work_dir;   // generated program/CSV inputs go here
  bool tiny = false;      // smoke-test scale: small inputs, same code paths
  bool selftest = false;  // corrupt one expected digest; must report failures
  int nproc = 1;
};

// Sorted-on-demand sample set with linearly interpolated percentiles.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  // p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  // The median of the lowest `share` of the values (at least one).
  double CalmMedian(double share) const;
  double Sum() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

// The share of a phase's windows that the calm latency estimates pool.
constexpr double kCalmShare = 0.1;

// setup_s: every workload sets up several times, spread over the run, and
// reports the median of the fastest third of the set-ups. A block of
// set-ups at one moment sampled the host's state at that moment (see
// Series): ten runs' medians moved by 0.19 between two passes, in the
// same passes as the calm latency moved by 0.004.
constexpr double kCalmSetupShare = 1.0 / 3.0;

// Samples of one measured phase, tagged with when they happened (seconds
// since the phase started) and cut into windows of `window_s` seconds.
//
// The gated latency is the median of the calmest windows. On a shared
// virtual machine each virtual CPU alternates, on scales from a fraction
// of a second to minutes, between a fast state and one about 1.5x slower
// (other tenants' load on the same physical core). Interference only
// adds latency, so the windows with the lowest medians are the least
// contaminated estimate of the program's own latency, while a change to
// the program moves every window, those included. Windows are short so
// that even a run spent mostly in the slow state holds some calm ones.
class Series {
 public:
  explicit Series(double window_s) : window_s_(window_s) {}
  void Add(double at_s, double value);
  size_t size() const { return points_.size(); }

  // The p-th percentile over every sample of the phase.
  double Percentile(double p) const;
  // The p-th percentile of the samples in the calmest windows: windows
  // ranked by their median, lowest first, pooled until they hold
  // `share` of the windows (at least one). Windows holding fewer than
  // half the median window's samples (the phase's ragged end) are left
  // out.
  double CalmPercentile(double p, double share) const;
  // Median over windows of samples per second.
  double Rate() const;

 private:
  std::vector<Samples> Windows() const;

  double window_s_;
  std::vector<std::pair<double, double>> points_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

// Everything one workload run reports: provenance, outcome counts, the
// end-to-end metrics (timed runs) and the per-layer metrics (traced runs).
class Report {
 public:
  void Param(const std::string& key, const std::string& value);
  void Param(const std::string& key, double value);

  void EndToEnd(const std::string& name, double value, const std::string& unit,
                const std::string& note = "");
  // Records a per-layer value; `name` must be one of the per-layer
  // metrics every traced run prints (common.cc lists them with units).
  void Layer(const std::string& name, double value);

  // One attempted operation; `ok` false counts it failed (error, shed,
  // timeout or wrong output).
  void Outcome(bool ok);
  // A wrong output: marks the run incorrect (the operation is also
  // counted failed through Outcome).
  void Wrong(const std::string& what);

  // Latency of the workload's operations: the gated latency_p50_ms (the
  // median of the calmest tenth of the windows), and as provenance the
  // calm p90 and the whole phase's p50, p90 and p99.
  void Latencies(const Series& millis);

  // Prints `# key value` provenance lines, `workload metric value unit`
  // lines, and the closing one-line JSON result (end-to-end metrics when
  // `layers` is false, every per-layer metric otherwise).
  void Print(const std::string& workload, bool layers) const;
  // Per-layer values as a JSON object (the traced run's layers file).
  std::string LayersJson() const;

 private:
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<Metric> end_to_end_;
  std::map<std::string, double> layers_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Per-layer timing: each Time() call opens a bench-side span (when a
// tracer is attached) carrying `req` and `parent` attributes and records
// the call's duration under the layer's name. The span's own cost falls
// outside the recorded duration.
class Layers {
 public:
  explicit Layers(obs::Tracer* tracer) : tracer_(tracer) {}

  template <typename Fn>
  auto Time(const std::string& name, int64_t req, const std::string& parent,
            double scale, Fn&& fn) {
    obs::Span span(tracer_, name);
    span.AddAttribute("req", req);
    span.AddAttribute("parent", parent);
    const Clock::time_point start = Clock::now();
    struct Record {
      Layers* self;
      const std::string& name;
      Clock::time_point start;
      double scale;
      ~Record() {
        const double ms = MillisBetween(start, Clock::now());
        self->timed_ms_ += ms;
        self->Add(name, ms * scale);
      }
    } record{this, name, start, scale};
    return fn();
  }
  template <typename Fn>
  auto Millis(const std::string& name, int64_t req, const std::string& parent,
              Fn&& fn) {
    return Time(name, req, parent, 1.0, std::forward<Fn>(fn));
  }
  template <typename Fn>
  auto Micros(const std::string& name, int64_t req, const std::string& parent,
              Fn&& fn) {
    return Time(name, req, parent, 1000.0, std::forward<Fn>(fn));
  }

  void Add(const std::string& name, double value) {
    samples_[name].Add(value);
  }
  const Samples* Find(const std::string& name) const;
  double Median(const std::string& name) const;
  obs::Tracer* tracer() const { return tracer_; }
  // Total of every duration Time() recorded, in milliseconds.
  double timed_ms() const { return timed_ms_; }

 private:
  obs::Tracer* tracer_;
  std::map<std::string, Samples> samples_;
  double timed_ms_ = 0.0;
};

// FNV-1a, 64 bit: the digest expected outputs are kept as.
uint64_t Digest(std::string_view bytes);

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

// The rule programs the workloads deploy, as the source text written to
// the program file the application under test parses.
extern const char kCompanyControlSource[];
extern const char kStressTestSource[];
extern const char kGoldenPowerSource[];

// Input paths of one generated application.
struct InputFiles {
  std::string program;
  std::string facts;
  std::string glossary;
};

// Writes program text, facts CSV and glossary CSV under
// `dir`/`name`.{vada,csv,glossary.csv}.
Result<InputFiles> WriteInputs(const std::string& dir, const std::string& name,
                               const std::string& program_source,
                               const std::vector<Fact>& facts,
                               const std::string& glossary_csv);

// What the daemon and the CLI both do before reasoning: read and parse the
// program, load the glossary, Create (with `config`'s metrics and tracer),
// load the facts. Each step is timed under its layer name with request id
// `req` and span parent `parent`.
Result<std::unique_ptr<KnowledgeGraphApplication>> LoadApp(
    const InputFiles& files, const ChaseConfig& config, Layers* layers,
    int64_t req, const std::string& parent);

// LoadApp, then the chase with `config`: the warm start.
Result<std::unique_ptr<KnowledgeGraphApplication>> BuildApp(
    const InputFiles& files, const ChaseConfig& config, Layers* layers,
    int64_t req);

// Adds one chase's layer samples: per-phase busy time (the growth of the
// chase.phase.*.seconds histograms since `before`), rounds, matches,
// derived facts and their ratio.
void AddChaseLayers(const ChaseResult& chase,
                    const obs::MetricsSnapshot& before, Layers* layers);

// Reports the medians of the set-up layers: CSV load, program parse,
// Create, chase run and everything AddChaseLayers records.
void ReportSetupLayers(const Layers& layers, Report* report);

// The application's Explain of `fact`, timed as explain.explain_us; also
// records the text's size (explain.bytes).
Result<std::string> TimedExplain(const KnowledgeGraphApplication& app,
                                 const Fact& fact, Layers* layers, int64_t req,
                                 const std::string& parent);
// Times the proof extraction of derived `fact` on its own (the explainer's
// registry records mapping and rendering, not extraction) and records the
// proof's chase steps. Extensional facts have no proof and are skipped.
void AddProofLayers(const ChaseResult& chase, const Fact& fact, Layers* layers,
                    int64_t req, const std::string& parent);
// Reports the explanation layers: the medians TimedExplain and
// AddProofLayers recorded, and from `registry` — the one the explainer
// records into — the map and render p50, the units per explanation and
// the fallback share.
void ReportExplainLayers(const Layers& layers,
                         const obs::MetricsSnapshot& registry, Report* report);

// Input generators. A network's *structure* comes from the fixed recipe
// seed so every --seed deploys an isomorphic network (run-to-run spread
// stays small); --seed renames the entities and drives every other draw.
constexpr uint64_t kRecipeSeed = 7;
std::vector<Fact> DenseOwnership(int companies, uint64_t seed);
std::vector<Fact> SparseOwnership(int companies, uint64_t seed);
// Consistently renames every string constant of `facts` through a
// length-preserving permutation, drawn from `seed`, of the names that
// occur.
void RenameEntities(std::vector<Fact>* facts, uint64_t seed);

// Draws ranks 0..n-1 with P(k) proportional to 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  int Draw(double uniform01) const;

 private:
  std::vector<double> cdf_;
};

// Workloads.
Status RunServeLookup(const Options& options, Report* report);
Status RunBatchReport(const Options& options, Report* report);
Status RunAnalystSession(const Options& options, Report* report);

// Writes the traced run's artifacts: <dir>/<workload>.trace.json and
// <dir>/<workload>.layers.json (layer values plus `registry_json`).
Status WriteTraceArtifacts(const Options& options, const obs::Tracer& tracer,
                           const Report& report,
                           const std::string& registry_json);

}  // namespace bench
}  // namespace templex

#endif  // TEMPLEX_BENCH_BENCH_H_
