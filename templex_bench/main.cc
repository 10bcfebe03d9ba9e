// templex_bench — runs one workload and prints its metrics.
//
//   templex_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR [--trace-dir DIR] [--tiny] [--verify-selftest]
//
// Workloads: serve_lookup, batch_report, analyst_session.
// Every flag also accepts the --flag=value form. Prints provenance lines
// (`# key value`), one `workload metric value unit` line per metric, and
// as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or every per-layer metric
// (--trace 1, which also writes <trace-dir>/<workload>.{trace,layers}.json).
//
// Exit codes: 0 result printed; 1 error; 2 refused — a Debug build,
// TEMPLEX_JOIN_MODE or TEMPLEX_EVAL_MODE set (either changes the program
// under test), a configured thread count above nproc, or a load generator
// that ran late (self_late_p99 > 1 ms) in the calmest windows of the open
// loop, which invalidates the run.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

#ifndef TEMPLEX_BENCH_BUILD_TYPE
#define TEMPLEX_BENCH_BUILD_TYPE ""
#endif

namespace templex {
namespace bench {
namespace {

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "templex_bench: %s\n"
               "usage: templex_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-dir DIR] [--tiny] "
               "[--verify-selftest]\n",
               problem.c_str());
  return 2;
}

int Refuse(const std::string& why) {
  std::fprintf(stderr, "templex_bench: refused: %s\n", why.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_inline = false;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline = true;
    }
    auto next = [&]() -> const std::string& {
      if (!has_inline && i + 1 < argc) {
        value = argv[++i];
        has_inline = true;
      }
      return value;
    };
    try {
      if (arg == "--workload") {
        options.workload = next();
      } else if (arg == "--seed") {
        options.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(next());
      } else if (arg == "--trace") {
        options.trace = next() == "1";
      } else if (arg == "--trace-dir") {
        options.trace_dir = next();
      } else if (arg == "--work-dir") {
        options.work_dir = next();
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--verify-selftest") {
        options.selftest = true;
      } else {
        return Usage("unknown flag " + arg);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + arg);
    }
  }
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  if (options.seconds <= 0) return Usage("--seconds must be positive");
  if (options.trace && options.trace_dir.empty()) {
    options.trace_dir = options.work_dir;
  }

  const std::string build_type = TEMPLEX_BENCH_BUILD_TYPE;
  if (build_type.empty() || build_type == "Debug") {
    return Refuse("build type '" + build_type +
                  "': benchmark an optimized build");
  }
  for (const char* env : {"TEMPLEX_JOIN_MODE", "TEMPLEX_EVAL_MODE"}) {
    if (std::getenv(env) != nullptr) {
      return Refuse(std::string(env) + " is set; it changes the program "
                    "under test");
    }
  }
  // nproc: the CPUs this process may run on.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  options.nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                      ? CPU_COUNT(&cpus)
                      : static_cast<int>(std::thread::hardware_concurrency());
  if (options.nproc < 1) options.nproc = 1;

  Status (*run)(const Options&, Report*) = nullptr;
  if (options.workload == "serve_lookup") {
    run = RunServeLookup;
  } else if (options.workload == "batch_report") {
    run = RunBatchReport;
  } else if (options.workload == "analyst_session") {
    run = RunAnalystSession;
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }

  Report report;
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  report.Param("workload", options.workload);
  report.Param("seed", std::to_string(options.seed));
  report.Param("seconds", options.seconds);
  report.Param("trace", options.trace ? "1" : "0");
  report.Param("scale", options.tiny ? "tiny" : "full");
  report.Param("nproc", options.nproc);
  report.Param("host", host);
  report.Param("compiler", __VERSION__);
  report.Param("build_type", build_type);

  const Status status = run(options, &report);
  if (status.code() == StatusCode::kFailedPrecondition) {
    return Refuse(status.message());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "templex_bench: %s\n", status.ToString().c_str());
    return 1;
  }
  report.Print(options.workload, options.trace);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace templex

int main(int argc, char** argv) { return templex::bench::Main(argc, argv); }
