// templex_serve — the long-lived, multi-tenant reasoning daemon
// (DESIGN.md §13; docs/API.md is the endpoint contract).
//
//   templex_serve --program rules.vada [--facts data.csv]...
//                 [--glossary glossary.csv]
//                 [--port N] [--port-file FILE]
//                 [--workers N] [--threads N]
//                 [--max-inflight N] [--admit-max N] [--tenant-max N]
//                 [--read-deadline-ms N] [--request-deadline-ms N]
//                 [--max-request-deadline-ms N] [--drain-deadline-ms N]
//                 [--checkpoint-dir DIR] [--resume] [--max-bytes N]
//                 [--event-log FILE] [--crash-report FILE]
//
// Every flag also accepts the --flag=value form.
//
// The daemon binds first and reasons second: the HTTP listener is up
// before the startup chase begins, so /healthz answers immediately and
// /readyz reports the warm-up position (rounds/facts so far) until the
// first snapshot epoch is published. From then on queries and
// explanations are served from immutable epoch-published snapshots —
// a POST /reload rebuilds from the same input files and publishes the
// next epoch without ever blocking readers.
//
// --port         listen port on 127.0.0.1 (default 0 = pick a free port);
// --port-file    write the bound port to FILE atomically (tmp + rename),
//                so scripts using --port 0 can find the daemon;
// --workers      request worker threads (default 4);
// --threads      accepted and ignored: the chase runs on one thread;
// --max-inflight accept-side connection cap — beyond it connections are
//                shed 503 + Retry-After straight from the accept thread;
// --admit-max    admitted work requests in flight (default 8);
// --tenant-max   admitted work requests per tenant (X-Tenant header;
//                default 4) — the noisy-neighbor wall, shed 429;
// --read-deadline-ms     reading one full request (slow-loris guard, 408);
// --request-deadline-ms  default per-request execution budget (clients
//                override with X-Deadline-Ms, clamped to
//                --max-request-deadline-ms);
// --drain-deadline-ms    how long a drain lets in-flight work finish
//                before cancelling it (default 5000);
// --checkpoint-dir / --resume  crash-safe warm start: the startup chase
//                commits checkpoints at round boundaries and a final
//                commit at fixpoint; a restarted daemon with --resume
//                warm-starts from the committed state and serves
//                byte-identical answers. The daemon is read-only after
//                the chase, so the chase's final commit IS the shutdown
//                checkpoint — drain has nothing further to write;
// --max-bytes    memory budget: the value is the hard watermark for the
//                chase, and admission sheds work (503) whenever live
//                accounted bytes sit above the soft watermark (3/4);
// --event-log / --crash-report  flight recorder, as in templex_cli; the
//                crash report also fires when a drain deadline expires,
//                naming every still-in-flight request.
//
// SIGTERM and SIGINT start a graceful drain: stop accepting, let
// in-flight requests finish (bounded by --drain-deadline-ms), then exit.
// A signal during warm-up cancels the chase cooperatively; its committed
// checkpoint rounds stay resumable.
//
// Exit codes:
//   0  clean drain (including a signal during warm-up);
//   1  generic error (bad inputs, bind failure, chase failure);
//   2  usage error;
//   4  drain deadline exceeded — stragglers were cancelled and named in
//      the crash report;
//   6  corrupt checkpoint (--resume refused to trust it).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/application.h"
#include "common/deadline.h"
#include "common/fs.h"
#include "common/memory.h"
#include "datalog/parser.h"
#include "engine/chase.h"
#include "explain/glossary.h"
#include "io/csv.h"
#include "io/glossary_csv.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "service/server.h"
#include "service/snapshot.h"
#include "service/transport.h"

namespace templex {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: templex_serve --program FILE [--facts FILE]...\n"
      "                     [--glossary FILE] [--port N] [--port-file FILE]\n"
      "                     [--workers N] [--threads N] [--max-inflight N]\n"
      "                     [--admit-max N] [--tenant-max N]\n"
      "                     [--read-deadline-ms N] [--request-deadline-ms N]\n"
      "                     [--max-request-deadline-ms N]\n"
      "                     [--drain-deadline-ms N]\n"
      "                     [--checkpoint-dir DIR] [--resume]\n"
      "                     [--max-bytes N]\n"
      "                     [--event-log FILE] [--crash-report FILE]\n"
      "exit codes: 0 clean drain, 1 error, 2 usage,\n"
      "            4 drain deadline exceeded, 6 corrupt checkpoint\n");
  return 2;
}

// The signal path: the handler may only do async-signal-safe work, so it
// trips the warm-up chase's cancellation token (a relaxed atomic store)
// and writes one byte into the self-pipe the main thread blocks on.
int g_signal_pipe[2] = {-1, -1};
const CancellationToken* g_signal_cancel = nullptr;

extern "C" void HandleTerminationSignal(int) {
  if (g_signal_cancel != nullptr) g_signal_cancel->Cancel();
  const char byte = 1;
  ssize_t written = write(g_signal_pipe[1], &byte, 1);
  (void)written;  // pipe full means a signal is already pending
}

struct ServeFlags {
  std::string program_path;
  std::vector<std::string> fact_paths;
  std::string glossary_path;
  int port = 0;
  std::string port_file;
  int workers = 4;
  int max_inflight = 64;
  int admit_max = 8;
  int tenant_max = 4;
  int64_t read_deadline_ms = 5000;
  int64_t request_deadline_ms = 10000;
  int64_t max_request_deadline_ms = 60000;
  int64_t drain_deadline_ms = 5000;
  std::string checkpoint_dir;
  bool resume = false;
  int64_t max_bytes = 0;
  std::string event_log_path;
  std::string crash_report_path;
};

}  // namespace

int Serve(int argc, char** argv) {
  ServeFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    bool has_inline = false;
    if (arg.size() > 2 && arg[0] == '-' && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline = true;
    }
    auto next = [&](const char* flag) -> std::string {
      if (has_inline) return value;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(Usage());
      }
      return argv[++i];
    };
    auto next_int = [&](const char* flag) -> int64_t {
      const std::string text = next(flag);
      try {
        size_t used = 0;
        const int64_t parsed = std::stoll(text, &used);
        if (used != text.size() || parsed < 0) throw std::exception();
        return parsed;
      } catch (...) {
        std::fprintf(stderr, "bad value for %s: '%s'\n", flag, text.c_str());
        std::exit(Usage());
      }
    };
    if (arg == "--program") {
      flags.program_path = next("--program");
    } else if (arg == "--facts") {
      flags.fact_paths.push_back(next("--facts"));
    } else if (arg == "--glossary") {
      flags.glossary_path = next("--glossary");
    } else if (arg == "--port") {
      flags.port = static_cast<int>(next_int("--port"));
    } else if (arg == "--port-file") {
      flags.port_file = next("--port-file");
    } else if (arg == "--workers") {
      flags.workers = static_cast<int>(next_int("--workers"));
    } else if (arg == "--threads") {
      next_int("--threads");  // validated, then ignored
    } else if (arg == "--max-inflight") {
      flags.max_inflight = static_cast<int>(next_int("--max-inflight"));
    } else if (arg == "--admit-max") {
      flags.admit_max = static_cast<int>(next_int("--admit-max"));
    } else if (arg == "--tenant-max") {
      flags.tenant_max = static_cast<int>(next_int("--tenant-max"));
    } else if (arg == "--read-deadline-ms") {
      flags.read_deadline_ms = next_int("--read-deadline-ms");
    } else if (arg == "--request-deadline-ms") {
      flags.request_deadline_ms = next_int("--request-deadline-ms");
    } else if (arg == "--max-request-deadline-ms") {
      flags.max_request_deadline_ms = next_int("--max-request-deadline-ms");
    } else if (arg == "--drain-deadline-ms") {
      flags.drain_deadline_ms = next_int("--drain-deadline-ms");
    } else if (arg == "--checkpoint-dir") {
      flags.checkpoint_dir = next("--checkpoint-dir");
    } else if (arg == "--resume") {
      flags.resume = true;
    } else if (arg == "--max-bytes") {
      flags.max_bytes = next_int("--max-bytes");
    } else if (arg == "--event-log") {
      flags.event_log_path = next("--event-log");
    } else if (arg == "--crash-report") {
      flags.crash_report_path = next("--crash-report");
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage();
    }
  }
  if (flags.program_path.empty()) {
    std::fprintf(stderr, "--program is required\n");
    return Usage();
  }
  if (flags.resume && flags.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return Usage();
  }
  if (flags.workers < 1) flags.workers = 1;

  obs::MetricsRegistry metrics;
  std::optional<obs::EventLog> event_log;
  if (!flags.event_log_path.empty() || !flags.crash_report_path.empty()) {
    obs::EventLogOptions log_options;
    log_options.fs = RealFilesystem();
    log_options.sink_path = flags.event_log_path;
    log_options.crash_report_path = flags.crash_report_path;
    log_options.metrics = &metrics;
    event_log.emplace(log_options);
  }

  auto die = [&event_log](const Status& status, int code) -> int {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    if (event_log.has_value() &&
        !event_log->options().crash_report_path.empty()) {
      Status dumped = event_log->DumpNow("serve: " + status.ToString());
      (void)dumped;  // the daemon's own error wins
    }
    return code;
  };

  std::optional<MemoryBudget> budget;
  if (flags.max_bytes > 0) {
    MemoryBudget::Options budget_options;
    budget_options.hard_limit_bytes = flags.max_bytes;
    budget_options.soft_limit_bytes = flags.max_bytes / 4 * 3;
    budget.emplace(budget_options);
  }

  // One warm start / reload = parse + load + chase. The warm-up run gets
  // the checkpoint config and the /readyz progress hook; reloads rebuild
  // fresh (their epoch replaces, never resumes).
  ChaseProgress progress;
  auto build = [&flags, &metrics, &event_log, &budget, &progress](
                   const Deadline& deadline, const CancellationToken& cancel,
                   bool startup)
      -> Result<std::shared_ptr<const KnowledgeGraphApplication>> {
    Result<std::string> source = ReadFileToString(flags.program_path);
    if (!source.ok()) return source.status();
    Result<Program> program = ParseProgram(source.value());
    if (!program.ok()) return program.status();

    DomainGlossary glossary;
    if (!flags.glossary_path.empty()) {
      Result<DomainGlossary> loaded = LoadGlossaryCsv(flags.glossary_path);
      if (!loaded.ok()) return loaded.status();
      glossary = std::move(loaded).value();
    } else {
      glossary = MinimalFallbackGlossary(program.value());
    }

    ExplainerOptions explainer_options;
    explainer_options.metrics = &metrics;
    if (event_log.has_value()) explainer_options.event_log = &*event_log;
    auto app = KnowledgeGraphApplication::Create(std::move(program).value(),
                                                 std::move(glossary),
                                                 explainer_options);
    if (!app.ok()) return app.status();
    for (const std::string& path : flags.fact_paths) {
      Result<std::vector<Fact>> facts = LoadFactsCsv(path);
      if (!facts.ok()) return facts.status();
      app.value()->AddFacts(std::move(facts).value());
    }

    ChaseConfig chase_config;
    chase_config.deadline = deadline;
    chase_config.cancel = cancel;
    chase_config.metrics = &metrics;
    if (event_log.has_value()) chase_config.event_log = &*event_log;
    if (budget.has_value()) chase_config.budget = &*budget;
    if (startup) {
      chase_config.progress = &progress;
      chase_config.checkpoint.dir = flags.checkpoint_dir;
      chase_config.checkpoint.resume = flags.resume;
    }
    Status ran = app.value()->Run(std::move(chase_config));
    if (!ran.ok()) return ran;
    return std::shared_ptr<const KnowledgeGraphApplication>(
        std::move(app).value());
  };

  // Bind before reasoning: health checks answer from the first moment,
  // and /readyz honestly reports "warming" until the epoch publishes.
  Result<std::unique_ptr<TcpServerTransport>> transport =
      TcpServerTransport::Listen(flags.port);
  if (!transport.ok()) return die(transport.status(), 1);
  if (!flags.port_file.empty()) {
    Status wrote = WriteFileAtomically(
        RealFilesystem(), flags.port_file,
        std::to_string(transport.value()->port()) + "\n");
    if (!wrote.ok()) return die(wrote, 1);
  }

  SnapshotRegistry snapshots(&metrics);
  ServerOptions server_options;
  server_options.num_workers = flags.workers;
  server_options.max_inflight = flags.max_inflight;
  server_options.admission.max_concurrent = flags.admit_max;
  server_options.admission.per_tenant_max = flags.tenant_max;
  server_options.read_deadline_ms = flags.read_deadline_ms;
  server_options.default_request_deadline_ms = flags.request_deadline_ms;
  server_options.max_request_deadline_ms = flags.max_request_deadline_ms;
  server_options.drain_deadline_ms = flags.drain_deadline_ms;
  if (budget.has_value()) server_options.budget = &*budget;
  server_options.metrics = &metrics;
  if (event_log.has_value()) server_options.event_log = &*event_log;
  server_options.warmup = &progress;
  server_options.rebuild = [&build](const Deadline& deadline,
                                    const CancellationToken& cancel) {
    return build(deadline, cancel, /*startup=*/false);
  };
  TemplexServer server(transport.value().get(), &snapshots, server_options);
  server.Start();
  std::fprintf(stderr, "templex_serve: listening on %s\n",
               transport.value()->Address().c_str());

  // Signals from here on drain the daemon; during warm-up they also
  // cancel the chase so shutdown is prompt.
  CancellationToken warmup_cancel;
  if (pipe(g_signal_pipe) != 0) {
    return die(Status(StatusCode::kInternal, "pipe() failed"), 1);
  }
  g_signal_cancel = &warmup_cancel;
  {
    struct sigaction action = {};
    action.sa_handler = HandleTerminationSignal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGINT, &action, nullptr);
    sigaction(SIGTERM, &action, nullptr);
  }

  Result<std::shared_ptr<const KnowledgeGraphApplication>> app =
      build(Deadline::Infinite(), warmup_cancel, /*startup=*/true);
  if (!app.ok()) {
    if (app.status().code() == StatusCode::kCancelled) {
      // Signal during warm-up: a requested shutdown, not a failure. The
      // chase's committed rounds stay resumable.
      Status drained = server.WaitDrained();
      return drained.ok() ? 0 : 4;
    }
    const int code =
        app.status().code() == StatusCode::kDataLoss ? 6 : 1;
    Status drained = server.WaitDrained();
    (void)drained;  // the warm-up failure is the story
    return die(app.status(), code);
  }
  const int64_t epoch = snapshots.Publish(std::move(app).value());
  std::fprintf(stderr, "templex_serve: ready, epoch %lld\n",
               static_cast<long long>(epoch));

  // Park until a termination signal; EINTR means the signal beat the read.
  char byte = 0;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "templex_serve: draining\n");
  const Status drained = server.WaitDrained();
  if (!drained.ok()) {
    std::fprintf(stderr, "templex_serve: drain deadline exceeded\n");
    return 4;
  }
  std::fprintf(stderr, "templex_serve: drained cleanly\n");
  return 0;
}

}  // namespace templex

int main(int argc, char** argv) { return templex::Serve(argc, argv); }
