// analyst_session: one analyst at a terminal, closed loop. Each turn runs
// a point query the way `templex_cli --query` does (fresh parse, Create,
// query-driven evaluation, explanation of the first answer) and a what-if
// shock against a resident stress-test application, in a seeded order.
#include <algorithm>
#include <set>

#include "apps/application.h"
#include "apps/generators.h"
#include "apps/glossaries.h"
#include "bench.h"
#include "common/rng.h"
#include "engine/query_planner.h"
#include "io/glossary_csv.h"
#include "io/json.h"

namespace templex {
namespace bench {
namespace {

std::string Lines(const std::vector<Fact>& facts) {
  std::string out;
  for (const Fact& fact : facts) out += fact.ToString() + "\n";
  return out;
}

struct Expected {
  uint64_t answers = 0;
  uint64_t explanation = 0;
};

// The CLI's --query path for `pattern`; returns answers + "\n" +
// explanation of the first answer.
Result<std::string> PointQuery(const InputFiles& files, const Fact& pattern,
                               const ChaseConfig& config, Layers* layers,
                               int64_t req) {
  const std::string parent = "point_query";
  auto app = LoadApp(files, config, layers, req, parent);
  if (!app.ok()) return app.status();
  if (layers->tracer() != nullptr) {
    // Traced runs time the planner on its own (RunForQuery plans again).
    layers->Micros("engine.plan_us", req, parent, [&] {
      return PlanQuery(app.value()->explainer().program(),
                       app.value()->facts(), pattern, EvalMode::kAuto);
    });
  }
  auto execution = layers->Millis("engine.run_for_query_ms", req, parent, [&] {
    return app.value()->RunForQuery(pattern, config);
  });
  if (!execution.ok()) return execution.status();
  const KnowledgeGraphApplication::QueryExecution& run = execution.value();
  layers->Add("engine.plan.qsqr",
              run.plan.mode == EvalMode::kQsqr ? 1.0 : 0.0);
  layers->Add("engine.query.relevant_edb_share",
              run.stats.query_driven
                  ? static_cast<double>(run.stats.relevant_edb_facts) /
                        std::max<int64_t>(1, run.stats.edb_facts)
                  : 1.0);
  if (run.answers.empty()) return Status::NotFound("no answers");
  Result<std::string> text =
      TimedExplain(*app.value(), run.answers.front(), layers, req, parent);
  if (!text.ok()) return text.status();
  if (layers->tracer() != nullptr) {
    AddProofLayers(app.value()->chase(), run.answers.front(), layers, req,
                   parent);
  }
  return Lines(run.answers) + "\n" + text.value();
}

// New Default facts of a full re-chase with `shock` against the
// baseline, as sorted text: what WhatIf must report. (Only the goal
// predicate is compared: the incremental path can skip intermediate
// monotonic-sum Risk values that a re-chase passes through.)
std::vector<std::string> RechaseDefaults(const KnowledgeGraphApplication& app,
                                         const Fact& shock) {
  std::vector<Fact> facts = app.facts();
  facts.push_back(shock);
  Result<ChaseResult> full =
      ChaseEngine().Run(app.explainer().program(), facts);
  std::vector<std::string> out;
  if (!full.ok()) return out;
  for (int id = 0; id < full.value().graph.size(); ++id) {
    const ChaseNode& node = full.value().graph.node(id);
    if (node.is_extensional() || node.fact.predicate != "Default") continue;
    if (!app.chase().graph.Find(node.fact).has_value()) {
      out.push_back(node.fact.ToString());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

Status RunAnalystSession(const Options& options, Report* report) {
  constexpr double kWindowSeconds = 0.5;  // about 40 turns
  // 100 companies: a turn takes about 13 ms on the reference host, so a
  // half-second window holds about 40 turns.
  const int companies = options.tiny ? 60 : 100;
  DebtNetworkOptions debts;
  debts.institutions = options.tiny ? 100 : 1000;
  debts.cascade_length = 20;
  debts.extra_debts = options.tiny ? 300 : 3000;
  debts.debts_per_channel = 2;
  report->Param("query_companies", companies);
  report->Param("query_noise_edges", companies / 2);
  report->Param("whatif_institutions", debts.institutions);
  report->Param("whatif_cascade_length", debts.cascade_length);
  report->Param("whatif_extra_debts", debts.extra_debts);
  report->Param("num_threads", 1);
  report->Param("turn", "point_query + whatif, order drawn 50/50");

  Result<InputFiles> query_files = WriteInputs(
      options.work_dir, "analyst_query", kCompanyControlSource,
      SparseOwnership(companies, options.seed),
      GlossaryToCsv(CompanyControlGlossary()));
  if (!query_files.ok()) return query_files.status();
  // The debt network's structure comes from the recipe seed; --seed
  // renames its institutions and draws every shock.
  Rng debt_rng(kRecipeSeed);
  std::vector<Fact> debt_facts = GenerateDebtNetwork(debts, &debt_rng);
  RenameEntities(&debt_facts, options.seed);
  Result<InputFiles> whatif_files =
      WriteInputs(options.work_dir, "analyst_whatif", kStressTestSource,
                  debt_facts, GlossaryToCsv(StressTestGlossary()));
  if (!whatif_files.ok()) return whatif_files.status();

  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  Layers layers(options.trace ? &tracer : nullptr);
  ChaseConfig config;
  if (options.trace) {
    config.metrics = &registry;
    config.tracer = &tracer;
  }

  // Set-up: the resident what-if application. A first build warms the
  // allocator; then every window of the session starts with a fresh
  // build, which becomes the resident. Traced runs also make a traced
  // build in every window, discarded, to measure the tracer's overhead.
  std::unique_ptr<KnowledgeGraphApplication> resident;
  int64_t builds = 0;
  auto build = [&](bool traced) -> Result<double> {
    ChaseConfig setup_config = config;
    if (!traced) setup_config.tracer = nullptr;
    const Clock::time_point start = Clock::now();
    auto built =
        BuildApp(whatif_files.value(), setup_config, &layers, -1 - builds++);
    if (!built.ok()) return built.status();
    const double seconds = MillisBetween(start, Clock::now()) / 1000.0;
    if (!traced) resident = std::move(built).value();
    return seconds;
  };
  if (Result<double> warm = build(false); !warm.ok()) return warm.status();

  // Expected point-query outputs from a full materialization, untimed.
  Layers unused(nullptr);
  auto reference = BuildApp(query_files.value(), ChaseConfig(), &unused, 0);
  if (!reference.ok()) return reference.status();
  std::vector<std::string> subjects;
  std::map<std::string, Expected> expected;
  const Fact all_controls{"Control", {Value::Null(), Value::Null()}};
  for (const Fact& fact : reference.value()->Query(all_controls)) {
    const std::string subject = fact.args[0].string_value();
    if (expected.count(subject) > 0) continue;
    const Fact pattern{"Control", {Value::String(subject), Value::Null()}};
    const std::vector<Fact> answers = reference.value()->Query(pattern);
    Result<std::string> text = reference.value()->Explain(answers.front());
    if (!text.ok()) return text.status();
    expected[subject] = Expected{Digest(Lines(answers)), Digest(text.value())};
    subjects.push_back(subject);
  }
  std::sort(subjects.begin(), subjects.end());
  // --verify-selftest corrupts the expected digest of the first subject
  // queried.
  bool corrupt = options.selftest;

  // Timed session.
  Rng rng(options.seed * 104729 + 7);
  Series turn_ms(kWindowSeconds);
  Samples traced_setup_s, setup_s;
  Samples query_ms, whatif_ms;
  const Clock::time_point origin = Clock::now();
  int64_t req = 0;
  int64_t whatifs = 0;
  std::vector<std::pair<Fact, std::vector<std::string>>> to_check;
  int64_t window = -1;
  while (MillisBetween(origin, Clock::now()) < options.seconds * 1000.0 ||
         turn_ms.size() == 0) {
    double at_s = MillisBetween(origin, Clock::now()) / 1000.0;
    if (static_cast<int64_t>(at_s / kWindowSeconds) != window) {
      window = static_cast<int64_t>(at_s / kWindowSeconds);
      if (options.trace) {
        Result<double> traced = build(true);
        if (!traced.ok()) return traced.status();
        traced_setup_s.Add(traced.value());
      }
      Result<double> seconds = build(false);
      if (!seconds.ok()) return seconds.status();
      setup_s.Add(seconds.value());
      at_s = MillisBetween(origin, Clock::now()) / 1000.0;
    }
    const std::string& subject = subjects[rng.NextUint64(subjects.size())];
    const Fact shock{"Shock",
                     {Value::String(CompanyName(static_cast<int>(
                          rng.NextUint64(debts.institutions)))),
                      Value::Int(100)}};
    const bool query_first = rng.NextBool(0.5);
    double turn = 0.0;
    for (int step = 0; step < 2; ++step) {
      const int64_t id = req++;
      if ((step == 0) == query_first) {
        const Fact pattern{"Control", {Value::String(subject), Value::Null()}};
        const Clock::time_point start = Clock::now();
        Result<std::string> out =
            PointQuery(query_files.value(), pattern, config, &layers, id);
        const double ms = MillisBetween(start, Clock::now());
        turn += ms;
        query_ms.Add(ms);
        bool ok = out.ok();
        if (ok) {
          const std::string& text = out.value();
          const size_t split = text.find("\n\n");
          Expected& want = expected[subject];
          if (corrupt) want.answers ^= 1;
          corrupt = false;
          ok = split != std::string::npos &&
               Digest(std::string_view(text).substr(0, split + 1)) ==
                   want.answers &&
               Digest(std::string_view(text).substr(split + 2)) ==
                   want.explanation;
          if (!ok) report->Wrong("point query Control(\"" + subject + "\", _)");
        }
        report->Outcome(ok);
        continue;
      }
      const Clock::time_point start = Clock::now();
      auto scenario = layers.Millis("apps.whatif_ms", id, "whatif", [&] {
        return resident->WhatIf({shock}, config);
      });
      bool ok = scenario.ok();
      if (ok) {
        for (const Fact& fact : scenario.value().new_facts) {
          if (fact.predicate != "Default") continue;
          ok = resident->ExplainUnder(scenario.value(), fact).ok() && ok;
        }
      }
      const double ms = MillisBetween(start, Clock::now());
      turn += ms;
      whatif_ms.Add(ms);
      if (ok) {
        layers.Add("engine.extend.new_facts",
                   static_cast<double>(scenario.value().new_facts.size()));
      }
      // One what-if in ten is checked against a full re-chase after the
      // timed loop; its outcome is counted then.
      if (ok && whatifs++ % 10 == 0) {
        std::vector<std::string> got;
        for (const Fact& fact : scenario.value().new_facts) {
          if (fact.predicate == "Default") got.push_back(fact.ToString());
        }
        std::sort(got.begin(), got.end());
        to_check.emplace_back(shock, std::move(got));
        continue;
      }
      report->Outcome(ok);
    }
    turn_ms.Add(at_s, turn);
  }
  for (const auto& [shock, got] : to_check) {
    const bool ok = got == RechaseDefaults(*resident, shock);
    if (!ok) report->Wrong("what-if " + shock.ToString());
    report->Outcome(ok);
  }

  report->Latencies(turn_ms);
  report->EndToEnd("setup_s", setup_s.CalmMedian(kCalmSetupShare), "s",
                   "median of the fastest third of " +
                       std::to_string(setup_s.size()) + " builds");
  report->Param("setup_median_s", setup_s.Median());
  report->Param("turns_per_s", turn_ms.Rate());
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report->Param("point_query_p50_ms", query_ms.Median());
  report->Param("point_query_p90_ms", query_ms.Percentile(90));
  report->Param("whatif_p50_ms", whatif_ms.Median());
  report->Param("whatif_p90_ms", whatif_ms.Percentile(90));

  ReportSetupLayers(layers, report);
  for (const char* name :
       {"engine.run_for_query_ms", "engine.query.relevant_edb_share",
        "apps.whatif_ms", "engine.extend.new_facts"}) {
    report->Layer(name, layers.Median(name));
  }
  if (const Samples* qsqr = layers.Find("engine.plan.qsqr")) {
    report->Layer("engine.plan.qsqr_share", qsqr->Sum() / qsqr->size());
  }
  if (options.trace) {
    report->Layer("engine.plan_us", layers.Median("engine.plan_us"));
    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    if (const obs::HistogramSnapshot* extend =
            snapshot.FindHistogram("chase.extend.seconds")) {
      report->Layer("engine.extend_ms", extend->p50 * 1000.0);
    }
    // Explanation layers: the point queries' explanations and the
    // what-ifs' ExplainUnder, both recorded into `registry`.
    ReportExplainLayers(layers, snapshot, report);
    if (!traced_setup_s.empty() && !setup_s.empty()) {
      report->Layer("obs.trace_overhead_pct",
                    (traced_setup_s.Median() / setup_s.Median() - 1.0) *
                        100.0);
    }
    Status wrote = WriteTraceArtifacts(options, tracer, *report,
                                       MetricsSnapshotToJson(snapshot));
    if (!wrote.ok()) return wrote;
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace templex
