// templex_cli — run a Vadalog-subset KG application from the command line.
//
//   templex_cli --program rules.vada --facts data.csv
//               [--glossary glossary.csv] [--query 'Control(A, C)']
//               [--explain 'Control(A, C)']... [--anonymize]
//               [--report out.md] [--interactive]
//               [--dump-json chase.json] [--templates]
//               [--metrics-json m.json] [--metrics-prom m.prom]
//               [--trace-out t.json] [--profile] [--rule-profile]
//               [--event-log events.jsonl] [--crash-report crash.jsonl]
//               [--threads N]
//
// Every flag also accepts the --flag=value form.
//
// --program    rule file (see src/datalog/parser.h for the syntax);
// --facts      CSV facts (see src/io/csv.h); repeatable;
// --glossary   CSV with lines `predicate,"pattern",token:style,...` — one
//              token:style pair per predicate argument, in argument order
//              (styles: plain|millions|percent). Without it, a minimal
//              fallback glossary is generated from the rules.
// --query      prints all facts matching a pattern (use _ as wildcard);
// --eval-mode  auto|materialize|qsqr — how --query is answered. qsqr runs
//              goal-directed evaluation (QSQR relevance pass + restricted
//              chase, see DESIGN.md §12) so point queries stop paying for
//              the full chase, unless the goal's eligibility check refuses
//              it; materialize forces the classic full run; auto (the
//              default) is qsqr for a goal with a bound argument and
//              materialize for one without. Answers and
//              explanation text are byte-identical across modes. Flags
//              that need the whole instance (--what-if, --interactive,
//              --dump-json, --report, --explain-all, --checkpoint-dir)
//              force materialize.
// --explain    prints the textual explanation of a derived fact
//              (repeatable);
// --explain-all prints every recorded reasoning story for the fact: the
//              primary derivation, then each kept alternative (a
//              re-derivation telling a different story; an aggregate
//              re-emitted with more contributors is not one), read
//              through the proof's derivation override;
// --anonymize  pseudonymizes the explanation output;
// --report     writes a markdown business report covering every --explain
//              plus the data-quality appendix;
// --what-if    adds hypothetical facts (repeatable), reasons over
//              baseline+hypothesis without mutating it, and prints the
//              newly derived facts;
// --interactive reads further query/explain lines from stdin
//              ("? Control(A, _)" queries, any fact literal explains);
// --templates  prints the explanation-template catalog;
// --dump-json  writes the chase graph as JSON;
// --metrics-json writes the run's metrics snapshot (per-rule firing
//              counters, per-phase latency histograms with p50/p95/p99) as
//              JSON — see docs/OBSERVABILITY.md for the naming scheme;
// --metrics-prom writes the same snapshot in Prometheus text exposition
//              format (0.0.4: # TYPE lines, histogram _bucket/_sum/_count)
//              for scraping or pushing to a gateway;
// --trace-out  writes a Chrome trace-event JSON of the run's nested spans
//              (load in chrome://tracing or https://ui.perfetto.dev);
// --profile    prints a metrics summary table on stderr after the run.
// --rule-profile prints per-rule cost attribution on stderr after the
//              chase: matches, firings, duplicates, and delta-window sizes
//              per (rule, stratum), sorted by matches. The columns are
//              deterministic, so the table is byte-identical from run to
//              run.
// --rule-profile-top keep only the K most expensive rows (default 20,
//              0 = all; implies nothing by itself — pair with
//              --rule-profile).
// --event-log  streams the run's structured flight-recorder events
//              (chase rounds, rule evaluations, checkpoint commits, LLM
//              retries) to a JSONL file as they happen;
// --crash-report on any failure (deadline, cancellation, chase error,
//              corrupt checkpoint, LLM retry exhaustion) writes the last
//              flight-recorder events to this JSONL file atomically, so a
//              post-mortem can see what the run was doing when it died.
//
// All file outputs (--report, --dump-json, --metrics-json, --metrics-prom,
// --trace-out, --crash-report) are written atomically: tmp + fsync +
// rename, so a killed run never leaves a partial artifact.
// --threads    accepted and ignored: the chase runs on one thread
//              (DESIGN.md §6). The value must still be a non-negative
//              integer.
// --deadline-ms overall wall-clock budget in milliseconds for reasoning
//              and explanation. When it expires the chase aborts cleanly
//              with DeadlineExceeded, and any LLM enhancement still
//              pending degrades to the deterministic template wording.
// --checkpoint-dir directory for crash-safe chase checkpoints (see
//              DESIGN.md §9): the run commits its state at round
//              boundaries, so a killed or deadline-exceeded run can be
//              continued with --resume instead of recomputed.
// --checkpoint-every-rounds journal a delta every N completed rounds
//              (default 1; requires --checkpoint-dir).
// --resume     resume from the checkpoint in --checkpoint-dir when one is
//              present (exact same program, facts, and semantics-affecting
//              config required); byte-identical to the uninterrupted run.
// --max-bytes  memory budget for the chase's accounted footprint (chase
//              graph + provenance, indexes, aggregates). The flag value
//              is the hard watermark: crossing it finishes the current
//              round, commits a final checkpoint (with --checkpoint-dir),
//              and exits 7 — rerun with --resume, without the budget, to
//              continue byte-identically. The soft watermark sits at 3/4
//              of it and sheds accessory state first (tracer buffers,
//              then flight-recorder rings) without changing any output.
// --stall-timeout-ms round-progress watchdog: if the matcher makes no
//              progress for this long, the run is cancelled cooperatively
//              (exit 5) and the crash report names the in-flight
//              rule/stratum/round. Committed rounds stay resumable.
// --chaos-stall-ms / --chaos-stall-round (tests/CI only) simulate a stuck
//              rule: burn this much wall-clock at the start of the given
//              round without heartbeating the watchdog.
//
// Exit codes (pinned by tests/tools/cli_exit_codes.cmake):
//   0  success;
//   1  generic error (bad input files, runtime failure, config-hash
//      mismatch on --resume);
//   2  usage error (unknown flag, missing argument, bad flag value);
//   3  query error: --query names a predicate unknown to the program and
//      facts, the goal is malformed, or the arity does not match;
//   4  deadline exceeded (--deadline-ms expired before completion);
//   5  cancelled (a watchdog-detected stall, or SIGINT/SIGTERM: both
//      signals trip the run's cancellation token, so an interrupted run
//      unwinds cleanly — with --checkpoint-dir every committed round
//      stays resumable);
//   6  corrupt checkpoint (DataLoss: the checkpoint failed its integrity
//      checks and --resume refused to trust it);
//   7  resource exhausted (--max-bytes hard watermark, max_rounds /
//      max_facts guard rails) — with --checkpoint-dir the committed
//      checkpoint resumes on a bigger box.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <optional>

#include "apps/application.h"
#include "common/deadline.h"
#include "common/fs.h"
#include "common/memory.h"
#include "common/watchdog.h"
#include "core/termination.h"
#include "explain/report.h"
#include "datalog/parser.h"
#include "io/csv.h"
#include "io/glossary_csv.h"
#include "io/json.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/rule_profile.h"
#include "obs/trace.h"

namespace {

using namespace templex;

int Usage() {
  std::fprintf(
      stderr,
      "usage: templex_cli --program FILE --facts FILE [--facts FILE]...\n"
      "                   [--glossary FILE] [--query FACT] [--explain FACT]...\n"
      "                   [--anonymize] [--report FILE] [--interactive]\n"
      "                   [--templates] [--dump-json FILE]\n"
      "                   [--metrics-json FILE] [--metrics-prom FILE]\n"
      "                   [--trace-out FILE] [--profile] [--rule-profile]\n"
      "                   [--rule-profile-top K]\n"
      "                   [--event-log FILE] [--crash-report FILE]\n"
      "                   [--threads N]\n"
      "                   [--eval-mode auto|materialize|qsqr]\n"
      "                   [--deadline-ms N]\n"
      "                   [--checkpoint-dir DIR] "
      "[--checkpoint-every-rounds N]\n"
      "                   [--resume] [--max-bytes N] [--stall-timeout-ms N]\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 bad query goal,\n"
      "            4 deadline exceeded,\n"
      "            5 cancelled (incl. watchdog stall), 6 corrupt "
      "checkpoint,\n"
      "            7 resource exhausted (--max-bytes; resumable with "
      "--resume)\n");
  return 2;
}

// Maps a failed Status to the documented exit-code convention (see the
// header comment; pinned by tests/tools/cli_exit_codes.cmake).
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      return 4;
    case StatusCode::kCancelled:
      return 5;
    case StatusCode::kDataLoss:
      return 6;
    case StatusCode::kResourceExhausted:
      return 7;
    default:
      return 1;
  }
}

// Termination signals cancel the run instead of killing the process: the
// token's Cancel() is a relaxed atomic store, so it is async-signal-safe,
// and the normal kCancelled unwind (exit 5, crash report, committed
// checkpoints intact) does the rest.
const CancellationToken* g_signal_cancel = nullptr;

extern "C" void HandleTerminationSignal(int) {
  if (g_signal_cancel != nullptr) g_signal_cancel->Cancel();
}

// Parses a query pattern: like a fact literal, but `_` is a wildcard.
Result<Fact> ParsePattern(const std::string& text) {
  Result<Fact> fact = ParseFactLiteral(text);
  if (!fact.ok()) return fact;
  Fact pattern = std::move(fact).value();
  for (Value& arg : pattern.args) {
    if (arg.is_string() && arg.string_value() == "_") arg = Value::Null();
  }
  return pattern;
}

}  // namespace

int main(int argc, char** argv) {
  std::string program_path;
  std::vector<std::string> fact_paths;
  std::string glossary_path;
  std::string query_text;
  std::vector<std::string> explain_texts;
  std::string explain_all_text;
  std::vector<std::string> whatif_texts;
  std::string json_path;
  std::string report_path;
  std::string metrics_path;
  std::string metrics_prom_path;
  std::string trace_path;
  std::string event_log_path;
  std::string crash_report_path;
  bool anonymize = false;
  bool print_templates = false;
  bool interactive = false;
  bool profile = false;
  bool rule_profile = false;
  long rule_profile_top = 20;
  EvalMode eval_mode = EvalMode::kAuto;
  long deadline_ms = -1;  // < 0: no deadline
  std::string checkpoint_dir;
  long checkpoint_every_rounds = 1;
  bool resume = false;
  long long max_bytes = 0;      // 0: no memory budget
  long stall_timeout_ms = 0;    // 0: no watchdog
  long chaos_stall_ms = 0;      // tests/CI only
  long chaos_stall_round = 2;

  // Normalize "--flag=value" into "--flag" "value" so both forms parse.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(arg);
    }
  }

  for (size_t i = 0; i < args.size(); ++i) {
    auto next = [&](const char* flag) -> const std::string& {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        std::exit(2);
      }
      return args[++i];
    };
    const std::string& arg = args[i];
    if (arg == "--program") {
      program_path = next("--program");
    } else if (arg == "--facts") {
      fact_paths.push_back(next("--facts"));
    } else if (arg == "--glossary") {
      glossary_path = next("--glossary");
    } else if (arg == "--query") {
      query_text = next("--query");
    } else if (arg == "--explain") {
      explain_texts.push_back(next("--explain"));
    } else if (arg == "--explain-all") {
      explain_all_text = next("--explain-all");
    } else if (arg == "--what-if") {
      whatif_texts.push_back(next("--what-if"));
    } else if (arg == "--report") {
      report_path = next("--report");
    } else if (arg == "--interactive") {
      interactive = true;
    } else if (arg == "--dump-json") {
      json_path = next("--dump-json");
    } else if (arg == "--metrics-json") {
      metrics_path = next("--metrics-json");
    } else if (arg == "--metrics-prom") {
      metrics_prom_path = next("--metrics-prom");
    } else if (arg == "--trace-out") {
      trace_path = next("--trace-out");
    } else if (arg == "--event-log") {
      event_log_path = next("--event-log");
    } else if (arg == "--crash-report") {
      crash_report_path = next("--crash-report");
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--rule-profile") {
      rule_profile = true;
    } else if (arg == "--rule-profile-top") {
      const std::string& value = next("--rule-profile-top");
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        std::fprintf(
            stderr, "--rule-profile-top expects a non-negative integer\n");
        return Usage();
      }
      rule_profile_top = parsed;
    } else if (arg == "--threads") {
      // Validated, then ignored: the chase runs on one thread.
      const std::string& value = next("--threads");
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        std::fprintf(stderr, "--threads expects a non-negative integer\n");
        return Usage();
      }
    } else if (arg == "--eval-mode") {
      const std::string& value = next("--eval-mode");
      Result<EvalMode> parsed = ParseEvalMode(value);
      if (!parsed.ok()) {
        std::fprintf(stderr,
                     "--eval-mode expects 'auto', 'materialize', or 'qsqr'\n");
        return Usage();
      }
      eval_mode = parsed.value();
    } else if (arg == "--deadline-ms") {
      const std::string& value = next("--deadline-ms");
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed <= 0) {
        std::fprintf(stderr, "--deadline-ms expects a positive integer\n");
        return Usage();
      }
      deadline_ms = parsed;
    } else if (arg == "--checkpoint-dir") {
      checkpoint_dir = next("--checkpoint-dir");
    } else if (arg == "--checkpoint-every-rounds") {
      const std::string& value = next("--checkpoint-every-rounds");
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed <= 0) {
        std::fprintf(
            stderr, "--checkpoint-every-rounds expects a positive integer\n");
        return Usage();
      }
      checkpoint_every_rounds = parsed;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--max-bytes") {
      const std::string& value = next("--max-bytes");
      char* end = nullptr;
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed <= 0) {
        std::fprintf(stderr, "--max-bytes expects a positive integer\n");
        return Usage();
      }
      max_bytes = parsed;
    } else if (arg == "--stall-timeout-ms") {
      const std::string& value = next("--stall-timeout-ms");
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed <= 0) {
        std::fprintf(stderr,
                     "--stall-timeout-ms expects a positive integer\n");
        return Usage();
      }
      stall_timeout_ms = parsed;
    } else if (arg == "--chaos-stall-ms") {
      const std::string& value = next("--chaos-stall-ms");
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 0) {
        std::fprintf(stderr,
                     "--chaos-stall-ms expects a non-negative integer\n");
        return Usage();
      }
      chaos_stall_ms = parsed;
    } else if (arg == "--chaos-stall-round") {
      const std::string& value = next("--chaos-stall-round");
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed <= 0) {
        std::fprintf(stderr,
                     "--chaos-stall-round expects a positive integer\n");
        return Usage();
      }
      chaos_stall_round = parsed;
    } else if (arg == "--anonymize") {
      anonymize = true;
    } else if (arg == "--templates") {
      print_templates = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (program_path.empty() || fact_paths.empty()) return Usage();
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return Usage();
  }

  // One registry + tracer for the whole invocation (pipeline build, chase,
  // and every explanation query) when any observability output is asked
  // for; otherwise the instrumented paths stay on their null branches.
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  const bool observe = !metrics_path.empty() || !metrics_prom_path.empty() ||
                       !trace_path.empty() || profile || rule_profile;

  // The flight recorder: always-on ring buffers once asked for, streamed
  // to --event-log if given, dumped to --crash-report on failure.
  std::optional<obs::EventLog> event_log;
  if (!event_log_path.empty() || !crash_report_path.empty()) {
    obs::EventLogOptions log_options;
    log_options.fs = RealFilesystem();
    log_options.sink_path = event_log_path;
    log_options.crash_report_path = crash_report_path;
    if (observe) log_options.metrics = &registry;
    event_log.emplace(log_options);
  }

  auto die = [&event_log](const Status& status) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    // Failure paths outside the chase (input loading, explanation queries)
    // still leave a post-mortem; chase failures have already dumped, and
    // re-dumping here just refreshes the report with the same ring.
    if (event_log.has_value() &&
        !event_log->options().crash_report_path.empty()) {
      Status dumped = event_log->DumpNow("cli: " + status.ToString());
      (void)dumped;  // the run's own error wins
    }
    std::exit(ExitCodeFor(status));
  };

  // One budget for the whole invocation: the clock starts here, before the
  // pipeline build, so parsing + chase + explanation all share it.
  const Deadline deadline = deadline_ms > 0
                                ? Deadline::AfterMillis(deadline_ms)
                                : Deadline::Infinite();

  Result<std::string> source = ReadFileToString(program_path);
  if (!source.ok()) die(source.status());
  Result<Program> program = ParseProgram(source.value());
  if (!program.ok()) die(program.status());
  Result<TerminationAnalysis> termination =
      AnalyzeTermination(program.value());
  if (termination.ok() &&
      termination.value().verdict == TerminationVerdict::kDataDependent) {
    std::fprintf(stderr, "warning: %s\n",
                 termination.value().ToString().c_str());
  }

  DomainGlossary glossary;
  bool have_glossary = !glossary_path.empty();
  if (have_glossary) {
    Result<DomainGlossary> loaded = LoadGlossaryCsv(glossary_path);
    if (!loaded.ok()) die(loaded.status());
    glossary = std::move(loaded).value();
  } else {
    // Minimal fallback so the pipeline can build: each predicate
    // verbalizes as itself (shared with templex_serve).
    glossary = MinimalFallbackGlossary(program.value());
  }

  ExplainerOptions explainer_options;
  explainer_options.deadline = deadline;
  if (observe) {
    explainer_options.metrics = &registry;
    explainer_options.tracer = &tracer;
  }
  if (event_log.has_value()) explainer_options.event_log = &*event_log;
  auto app = KnowledgeGraphApplication::Create(std::move(program).value(),
                                               std::move(glossary),
                                               explainer_options);
  if (!app.ok()) die(app.status());

  for (const std::string& path : fact_paths) {
    Result<std::vector<Fact>> facts = LoadFactsCsv(path);
    if (!facts.ok()) die(facts.status());
    app.value()->AddFacts(std::move(facts).value());
  }
  // Resolve and validate the query goal before any chase work: a bad
  // goal must fail fast with the documented exit code 3 in every
  // evaluation mode.
  std::optional<Fact> query_pattern;
  if (!query_text.empty()) {
    Result<Fact> pattern = ParsePattern(query_text);
    if (!pattern.ok()) {
      std::fprintf(stderr, "error: malformed query goal: %s\n",
                   pattern.status().ToString().c_str());
      return 3;
    }
    Status valid = ValidateGoalPattern(app.value()->explainer().program(),
                                       app.value()->facts(), pattern.value());
    if (!valid.ok()) {
      std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
      return 3;
    }
    query_pattern = std::move(pattern).value();
  }

  ChaseConfig chase_config;
  // SIGINT/SIGTERM trip the run's cancellation token: the chase unwinds
  // cooperatively at the next interruption point — every committed
  // checkpoint round stays resumable with --checkpoint-dir — and the
  // process exits with the documented cancellation code 5.
  g_signal_cancel = &chase_config.cancel;
  {
    struct sigaction action = {};
    action.sa_handler = HandleTerminationSignal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
  }
  chase_config.deadline = deadline;
  chase_config.checkpoint.dir = checkpoint_dir;
  chase_config.checkpoint.every_rounds = checkpoint_every_rounds;
  chase_config.checkpoint.resume = resume;
  chase_config.chaos_stall_ms = chaos_stall_ms;
  chase_config.chaos_stall_round = chaos_stall_round;
  if (observe) {
    chase_config.metrics = &registry;
    chase_config.tracer = &tracer;
  }
  if (event_log.has_value()) chase_config.event_log = &*event_log;

  // Resource governor: --max-bytes is the hard (save-and-stop) watermark;
  // the soft (degrade) watermark sits at 3/4 of it. Budget and watchdog
  // are execution-environment knobs — outside the checkpoint config hash,
  // so a save-and-stopped run resumes without them.
  std::optional<MemoryBudget> budget;
  if (max_bytes > 0) {
    MemoryBudget::Options budget_options;
    budget_options.hard_limit_bytes = max_bytes;
    budget_options.soft_limit_bytes = max_bytes / 4 * 3;
    budget.emplace(budget_options);
    chase_config.budget = &*budget;
  }

  // Stall watchdog: shares chase_config.cancel, so a detected stall
  // unwinds the run with kCancelled (exit 5) at the next interruption
  // point; the crash report and the watchdog.stall event name the
  // in-flight rule/stratum/round.
  std::optional<StallWatchdog> watchdog;
  if (stall_timeout_ms > 0) {
    StallWatchdog::Options wd_options;
    wd_options.stall_timeout_ms = stall_timeout_ms;
    wd_options.cancel = chase_config.cancel;
    wd_options.on_stall = [&event_log, &registry,
                           observe](const StallWatchdog::StallReport& report) {
      std::fprintf(stderr,
                   "watchdog: no matcher progress for %lld ms "
                   "(rule '%s', stratum %d, round %lld) — cancelling\n",
                   static_cast<long long>(report.stalled_for_ms),
                   report.rule.c_str(), report.stratum,
                   static_cast<long long>(report.round));
      if (observe) registry.counter("chase.watchdog.stalls")->Increment();
      if (event_log.has_value()) {
        event_log->Log(
            obs::EventLevel::kError, "chase", "watchdog.stall",
            {{"rule", report.rule},
             {"stratum", std::to_string(report.stratum)},
             {"round", std::to_string(report.round)},
             {"stalled_for_ms", std::to_string(report.stalled_for_ms)},
             {"stall_timeout_ms", std::to_string(report.stall_timeout_ms)},
             {"heartbeats", std::to_string(report.heartbeats)}});
        if (!event_log->options().crash_report_path.empty()) {
          Status dumped = event_log->DumpNow("watchdog: stalled round");
          (void)dumped;  // the cancellation is the signal; dump best effort
        }
      }
    };
    watchdog.emplace(std::move(wd_options));
    chase_config.watchdog = &*watchdog;
    watchdog->Start();
  }

  // Flags that read beyond the query cone need the whole instance; with
  // them present the query is answered off a classic full run.
  const bool needs_full_chase =
      !whatif_texts.empty() || interactive || !json_path.empty() ||
      !report_path.empty() || !explain_all_text.empty() ||
      !checkpoint_dir.empty();
  std::optional<KnowledgeGraphApplication::QueryExecution> query_execution;
  Status run = Status::OK();
  if (query_pattern.has_value() && !needs_full_chase) {
    auto execution =
        app.value()->RunForQuery(*query_pattern, chase_config, eval_mode);
    if (execution.ok()) {
      query_execution = std::move(execution).value();
    } else {
      run = execution.status();
    }
  } else {
    run = app.value()->Run(chase_config);
  }
  // Stop the monitor before anything else: explanation queries and report
  // building do not heartbeat, and a late stall trip would cancel them.
  if (watchdog.has_value()) watchdog->Stop();
  if (!run.ok()) die(run);
  if (query_execution.has_value()) {
    // Plan and strategy go to stderr so stdout stays the stable
    // answer/explanation stream.
    const QueryPlan& plan = query_execution->plan;
    std::fprintf(stderr, "query plan: %s — %s\n", EvalModeName(plan.mode),
                 plan.reason.c_str());
  }

  const ChaseResult& chase = app.value()->chase();
  std::printf("facts: %d total (%lld derived) in %lld rounds\n",
              chase.graph.size(),
              static_cast<long long>(chase.stats.derived_facts),
              static_cast<long long>(chase.stats.rounds));
  for (const ConstraintViolation& violation : app.value()->violations()) {
    std::printf("violation: %s\n", violation.ToString(chase.graph).c_str());
  }

  if (print_templates) {
    for (const ExplanationTemplate& tmpl :
         app.value()->explainer().templates()) {
      std::printf("[%s] %s\n  %s\n", tmpl.name.c_str(),
                  tmpl.path.ToString().c_str(), tmpl.EffectiveText().c_str());
    }
  }

  if (query_pattern.has_value()) {
    for (const Fact& fact : app.value()->Query(*query_pattern)) {
      std::printf("%s\n", fact.ToString().c_str());
    }
  }

  for (const std::string& explain_text : explain_texts) {
    Result<Fact> goal = ParseFactLiteral(explain_text);
    if (!goal.ok()) die(goal.status());
    if (anonymize) {
      Result<AnonymizedText> text =
          app.value()->ExplainAnonymized(goal.value());
      if (!text.ok()) die(text.status());
      std::printf("%s\n", text.value().text.c_str());
    } else {
      Result<std::string> text = app.value()->Explain(goal.value());
      if (!text.ok()) die(text.status());
      std::printf("%s\n", text.value().c_str());
    }
  }

  if (!whatif_texts.empty()) {
    std::vector<Fact> hypothetical;
    for (const std::string& text : whatif_texts) {
      Result<Fact> fact = ParseFactLiteral(text);
      if (!fact.ok()) die(fact.status());
      hypothetical.push_back(std::move(fact).value());
    }
    auto scenario = app.value()->WhatIf(hypothetical);
    if (!scenario.ok()) die(scenario.status());
    std::printf("what-if: %zu new derived facts\n",
                scenario.value().new_facts.size());
    for (const Fact& fact : scenario.value().new_facts) {
      std::printf("  %s\n", fact.ToString().c_str());
    }
  }

  if (!explain_all_text.empty()) {
    Result<Fact> goal = ParseFactLiteral(explain_all_text);
    if (!goal.ok()) die(goal.status());
    Result<std::vector<std::string>> stories =
        app.value()->explainer().ExplainAllDerivations(app.value()->chase(),
                                                       goal.value());
    if (!stories.ok()) die(stories.status());
    for (size_t i = 0; i < stories.value().size(); ++i) {
      std::printf("[story %zu/%zu] %s\n", i + 1, stories.value().size(),
                  stories.value()[i].c_str());
    }
  }

  if (!report_path.empty()) {
    ReportBuilder builder(&app.value()->explainer(), &app.value()->chase());
    builder.Title("Reasoning report for " + program_path);
    for (const std::string& explain_text : explain_texts) {
      Result<Fact> goal = ParseFactLiteral(explain_text);
      if (!goal.ok()) die(goal.status());
      builder.AddExplanation(goal.value());
    }
    builder.AddViolationsAppendix();
    if (observe) builder.AddMetricsAppendix(registry.Snapshot());
    Result<std::string> report = builder.Build();
    if (!report.ok()) die(report.status());
    Status written =
        WriteFileAtomically(RealFilesystem(), report_path, report.value());
    if (!written.ok()) die(written);
    std::printf("report written to %s\n", report_path.c_str());
  }

  if (interactive) {
    std::printf(
        "interactive mode: '? Pattern(...)' queries (use _ as wildcard), a "
        "fact literal explains it, empty line exits\n");
    std::string line;
    while (std::printf("> "), std::fflush(stdout),
           std::getline(std::cin, line)) {
      if (line.empty()) break;
      if (line[0] == '?') {
        Result<Fact> pattern = ParsePattern(line.substr(1));
        if (!pattern.ok()) {
          std::printf("error: %s\n", pattern.status().ToString().c_str());
          continue;
        }
        for (const Fact& fact : app.value()->Query(pattern.value())) {
          std::printf("%s\n", fact.ToString().c_str());
        }
        continue;
      }
      Result<Fact> goal = ParseFactLiteral(line);
      if (!goal.ok()) {
        std::printf("error: %s\n", goal.status().ToString().c_str());
        continue;
      }
      Result<std::string> text = app.value()->Explain(goal.value());
      if (!text.ok()) {
        std::printf("error: %s\n", text.status().ToString().c_str());
        continue;
      }
      std::printf("%s\n", text.value().c_str());
    }
  }

  if (!json_path.empty()) {
    Result<std::string> json = app.value()->ExportChaseJson();
    if (!json.ok()) die(json.status());
    Status written =
        WriteFileAtomically(RealFilesystem(), json_path, json.value());
    if (!written.ok()) die(written);
    std::printf("chase graph written to %s\n", json_path.c_str());
  }

  // Observability outputs last, so the snapshot covers the whole
  // invocation (pipeline build, chase, queries, reports).
  if (!metrics_path.empty()) {
    Status written =
        WriteFileAtomically(RealFilesystem(), metrics_path,
                            MetricsSnapshotToJson(registry.Snapshot()) + "\n");
    if (!written.ok()) die(written);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  if (!metrics_prom_path.empty()) {
    Status written =
        WriteFileAtomically(RealFilesystem(), metrics_prom_path,
                            MetricsSnapshotToPrometheusText(
                                registry.Snapshot()));
    if (!written.ok()) die(written);
    std::printf("prometheus metrics written to %s\n",
                metrics_prom_path.c_str());
  }
  if (!trace_path.empty()) {
    Status written =
        WriteFileAtomically(RealFilesystem(), trace_path,
                            TraceEventsToJson(tracer.events()) + "\n");
    if (!written.ok()) die(written);
    std::printf("trace written to %s (load in chrome://tracing)\n",
                trace_path.c_str());
  }
  if (profile) {
    std::fprintf(stderr, "%s", ProfileTable(registry.Snapshot()).c_str());
  }
  if (rule_profile) {
    std::fprintf(stderr, "%s",
                 obs::RuleProfileTable(
                     app.value()->chase().rule_profiles,
                     static_cast<size_t>(rule_profile_top),
                     /*include_seconds=*/false)
                     .c_str());
  }
  return 0;
}
