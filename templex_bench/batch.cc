// batch_report: the nightly CLI pipeline — parse, load, Create and a
// multi-threaded chase of the golden-power program over a dense ownership
// network, then a report explaining every Review fact.
#include <algorithm>
#include <map>
#include <set>
#include <thread>

#include "apps/application.h"
#include "apps/glossaries.h"
#include "bench.h"
#include "common/rng.h"
#include "explain/report.h"
#include "io/glossary_csv.h"
#include "io/json.h"

namespace templex {
namespace bench {
namespace {

Value Name(const std::string& name) { return Value::String(name); }

// Ownership network plus golden-power attributes. Exactly `reviews`
// acquisitions are of a company the acquirer holds a direct majority stake
// in (so each yields one Review fact, with a proof of the same shape:
// sigma1, gp1, gp2); as many again are filed by non-foreign acquirers and
// yield none.
std::vector<Fact> GoldenPowerFacts(int companies, int reviews, uint64_t seed) {
  std::vector<Fact> facts = DenseOwnership(companies, seed);
  std::set<std::string> names;
  std::vector<std::pair<std::string, std::string>> controlled;
  for (const Fact& fact : facts) {
    names.insert(fact.args[0].string_value());
    names.insert(fact.args[1].string_value());
    if (fact.args[2].AsDouble() > 0.5) {
      controlled.emplace_back(fact.args[0].string_value(),
                              fact.args[1].string_value());
    }
  }
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 3);
  rng.Shuffle(controlled);
  controlled.resize(std::min<size_t>(controlled.size(), reviews));

  std::set<std::string> foreign, strategic;
  const std::vector<std::string> all(names.begin(), names.end());
  for (const std::string& name : all) {
    if (rng.NextBool(0.1)) strategic.insert(name);
    if (rng.NextBool(0.1)) foreign.insert(name);
  }
  for (const auto& [x, y] : controlled) {
    foreign.insert(x);
    strategic.insert(y);
  }
  int filed = 0;
  auto acquisition = [&facts, &filed](const std::string& x,
                                      const std::string& y) {
    ++filed;
    facts.push_back(Fact{"Acquisition",
                         {Name(x), Name(y),
                          Name("2025-" + std::to_string(1 + filed % 12) + "-" +
                               std::to_string(1 + filed % 28))}});
  };
  for (const auto& [x, y] : controlled) acquisition(x, y);
  for (size_t i = 0; i < controlled.size();) {
    const std::string& x = all[rng.NextUint64(all.size())];
    const std::string& y = all[rng.NextUint64(all.size())];
    if (x == y || foreign.count(x) > 0) continue;
    acquisition(x, y);
    ++i;
  }
  for (const std::string& name : strategic) {
    facts.push_back(Fact{"Strategic", {Name(name)}});
  }
  for (const std::string& name : foreign) {
    facts.push_back(Fact{"Foreign", {Name(name)}});
  }
  return facts;
}

Result<std::string> BuildReport(const KnowledgeGraphApplication& app,
                                const std::vector<Fact>& reviews) {
  ReportBuilder builder(&app.explainer(), &app.chase());
  builder.Title("Golden-power review");
  for (const Fact& fact : reviews) builder.AddExplanation(fact);
  builder.AddViolationsAppendix();
  return builder.Build();
}

}  // namespace

Status RunBatchReport(const Options& options, Report* report) {
  constexpr int kSetups = 5;
  const int companies = options.tiny ? 80 : 800;
  const int reviews = options.tiny ? 5 : 300;
  const int threads = std::min(options.nproc, 4);
  report->Param("companies", companies);
  report->Param("reviews", reviews);
  report->Param("num_threads", threads);
  report->Param("strategic_share", 0.1);
  report->Param("foreign_share", 0.1);
  std::vector<Fact> facts = GoldenPowerFacts(companies, reviews, options.seed);
  report->Param("edb_facts", static_cast<double>(facts.size()));
  Result<InputFiles> files =
      WriteInputs(options.work_dir, "batch_report", kGoldenPowerSource, facts,
                  GlossaryToCsv(GoldenPowerGlossary()));
  if (!files.ok()) return files.status();
  facts.clear();

  obs::Tracer tracer;
  Layers layers(options.trace ? &tracer : nullptr);
  const Fact review_pattern{"Review",
                            {Value::Null(), Value::Null(), Value::Null()}};

  // Expected output: one untimed sequential repetition.
  uint64_t expected = 0;
  {
    Layers unused(nullptr);
    auto app = BuildApp(files.value(), ChaseConfig(), &unused, 0);
    if (!app.ok()) return app.status();
    const std::vector<Fact> found = app.value()->Query(review_pattern);
    if (static_cast<int>(found.size()) != reviews) {
      report->Wrong("expected " + std::to_string(reviews) +
                    " Review facts, found " + std::to_string(found.size()));
    }
    Result<std::string> text = BuildReport(*app.value(), found);
    if (!text.ok()) return text.status();
    expected = Digest(text.value());
    if (options.selftest) expected ^= 1;
  }

  // Timed, in segments: each builds the application (the set-up: the
  // pipeline's build at min(nproc, 4) chase threads), then builds the
  // report over every Review fact from it, repeatedly, for its share of
  // the run. Latencies fall in quarter-second windows (about 80 reports
  // each) over the report time alone. Traced runs also make a traced
  // build, which is discarded, before each set-up after the first;
  // obs.trace_overhead_pct compares the two.
  Samples setup_s, traced_setup_s, untraced_setup_s;
  std::unique_ptr<KnowledgeGraphApplication> app;
  std::vector<Fact> found;
  obs::MetricsRegistry registry;
  Series report_ms(0.25);
  double reported_s = 0.0;  // report time of the earlier segments
  int64_t req = 0;
  for (int i = 0; i < kSetups; ++i) {
    auto build = [&](bool traced) {
      ChaseConfig config;
      config.num_threads = threads;
      if (options.trace) config.metrics = &registry;
      if (traced) config.tracer = &tracer;
      return BuildApp(files.value(), config, &layers, -1 - req++);
    };
    app.reset();
    if (options.trace && i > 0) {
      const Clock::time_point start = Clock::now();
      if (auto traced = build(true); !traced.ok()) return traced.status();
      traced_setup_s.Add(MillisBetween(start, Clock::now()) / 1000.0);
    }
    const Clock::time_point start = Clock::now();
    auto built = build(false);
    if (!built.ok()) return built.status();
    const double seconds = MillisBetween(start, Clock::now()) / 1000.0;
    setup_s.Add(seconds);
    // The first build warms the allocator; the overhead compares the rest.
    if (i > 0) untraced_setup_s.Add(seconds);
    app = std::move(built).value();
    found = app->Query(review_pattern);

    const double until_s = options.seconds * (i + 1) / kSetups;
    const Clock::time_point origin = Clock::now();
    double elapsed_s = 0.0;
    while (reported_s + elapsed_s < until_s || report_ms.size() == 0) {
      const Clock::time_point start = Clock::now();
      Result<std::string> text = layers.Millis(
          "explain.report_ms", req++, "batch",
          [&] { return BuildReport(*app, found); });
      const double ms = MillisBetween(start, Clock::now());
      report_ms.Add(reported_s + MillisBetween(origin, start) / 1000.0, ms);
      const bool ok = text.ok() && Digest(text.value()) == expected;
      if (text.ok() && !ok) report->Wrong("report differs from 1-thread run");
      report->Outcome(ok);
      elapsed_s = MillisBetween(origin, Clock::now()) / 1000.0;
    }
    reported_s += elapsed_s;
  }

  report->Latencies(report_ms);
  report->EndToEnd("setup_s", setup_s.CalmMedian(kCalmSetupShare), "s",
                   "median of the fastest third of " +
                       std::to_string(kSetups) + " builds");
  report->Param("setup_median_s", setup_s.Median());
  report->Param("reports_per_s", report_ms.Rate());
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report->Param("report_s",
                setup_s.CalmMedian(kCalmSetupShare) +
                    report_ms.Percentile(50) / 1000.0);

  ReportSetupLayers(layers, report);
  report->Layer("explain.report_ms", report_ms.Percentile(50));
  if (options.trace) {
    for (const Fact& fact : found) {
      TimedExplain(*app, fact, &layers, req, "batch");
      AddProofLayers(app->chase(), fact, &layers, req++, "batch");
    }
    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    ReportExplainLayers(layers, snapshot, report);
    if (!traced_setup_s.empty() && !untraced_setup_s.empty()) {
      report->Layer("obs.trace_overhead_pct",
                    (traced_setup_s.Median() / untraced_setup_s.Median() -
                     1.0) * 100.0);
    }
    Status wrote = WriteTraceArtifacts(options, tracer, *report,
                                       MetricsSnapshotToJson(snapshot));
    if (!wrote.ok()) return wrote;
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace templex
