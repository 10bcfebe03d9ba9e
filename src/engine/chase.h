#ifndef TEMPLEX_ENGINE_CHASE_H_
#define TEMPLEX_ENGINE_CHASE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "datalog/program.h"
#include "engine/chase_graph.h"
#include "engine/fact.h"
#include "obs/metrics.h"
#include "obs/rule_profile.h"

namespace templex {

class AggregateState;  // engine/aggregate_state.h
class Fs;              // common/fs.h
class MemoryBudget;    // common/memory.h
class StallWatchdog;   // common/watchdog.h

namespace obs {
class EventLog;  // obs/event_log.h
class Tracer;    // obs/trace.h
}

// Live chase progress for long-lived hosts (src/service): when attached via
// ChaseConfig::progress, the run stores its completed-round count and total
// fact count here at every round boundary (and once at start, so a resumed
// run reports its restored position immediately). An external observer —
// the service's /readyz warming report — reads the atomics without touching
// the mid-chase graph. Written by the chase's thread only; relaxed loads
// are fine (the values are advisory, not a synchronization point).
struct ChaseProgress {
  std::atomic<int64_t> rounds{0};
  std::atomic<int64_t> facts{0};
};

// Tuning and safety limits for a chase run.
struct ChaseConfig {
  // Hard cap on fixpoint rounds; exceeding it is a ResourceExhausted error
  // (the paper only considers programs with guaranteed termination, so the
  // caps act as guard rails for mis-specified inputs). 64-bit like
  // ChaseStats: fact counts outgrow int at the ROADMAP's target scale.
  int64_t max_rounds = 100000;
  // Hard cap on the total number of facts (extensional + derived). Only a
  // head that would add a new fact trips it, so a chase whose fixpoint
  // holds exactly max_facts facts completes.
  int64_t max_facts = 5000000;
  // When false, every round re-evaluates all rules over the whole database
  // (naive evaluation): the oracle the semi-naive path is tested against
  // (chase_test's NaiveOracle* cases, alternatives_test), and the
  // ablation benchmarks' baseline.
  bool semi_naive = true;
  // How many alternative derivations to keep per fact (0 disables the
  // feature). Only acyclic re-derivations through a different rule or
  // different facts are recorded.
  int max_alternative_derivations = 4;
  // Ignored: the chase runs on the calling thread (DESIGN.md §6). Kept so
  // callers that set a thread count, and the CLI and daemon `--threads`
  // flags, keep working.
  int num_threads = 1;
  // Optional observability sinks (obs/metrics.h, obs/trace.h); both may be
  // null, in which case instrumented code paths reduce to one pointer test
  // each — tier-1 timings are unaffected. When `metrics` is set, the run
  // maintains per-rule firing/match/duplicate counters and per-phase
  // latency histograms (matching, head creation, aggregation, constraint
  // checking — VLog's breakdown) and ChaseResult::metrics carries the final
  // snapshot. When `tracer` is set, the run records nested spans
  // (chase.run -> chase.round -> chase.rule) exportable as Chrome
  // trace-event JSON. Both must outlive the run.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  // Flight recorder (obs/event_log.h); may be null, in which case event
  // sites reduce to one pointer test each. When set, the run records
  // structured events — run/stratum/round boundaries at info level, per
  // rule evaluation at debug level, each carrying the in-flight
  // rule/stratum/round — and on any failing Run() or Extend() (deadline,
  // cancellation, chase error, checkpoint kDataLoss) the engine dumps the
  // recorder's last events to the log's crash-report path, so chaos
  // failures are diagnosable post-mortem. Must outlive the run.
  obs::EventLog* event_log = nullptr;
  // Failure model (common/deadline.h): the run returns kDeadlineExceeded /
  // kCancelled — never crashes, hangs, or leaks — as soon as an
  // interruption point observes the deadline passed or the token fired.
  // Interruption points: run entry, every round boundary, and every match
  // enumerated. Partial chase state is discarded — unless checkpointing
  // (below) is on, in which case the rounds committed before the
  // interruption survive on disk and a later run with `resume` continues
  // from them.
  // Defaults: no deadline, no cancellation — zero-cost for callers that
  // leave them unset.
  Deadline deadline;
  CancellationToken cancel;
  // Resource governor (common/memory.h, DESIGN.md §11); may be null, in
  // which case footprint accounting costs one pointer test per round. When
  // set, the run reconciles its content-based footprint (chase graph +
  // provenance, position index, aggregate state) against the budget at
  // every round boundary and exports
  // chase.memory.{bytes,peak_bytes,pressure_events}. Soft pressure sheds
  // accessory state in priority order — tracer buffers first, then the
  // flight-recorder rings. Hard pressure is save-and-stop: the current
  // round finishes, a final checkpoint commits (when checkpointing is on),
  // and Run() returns kResourceExhausted — a later run with
  // `checkpoint.resume` (on a bigger box, without the budget) continues
  // byte-identically. The budget is an execution-environment knob:
  // deliberately outside the checkpoint config hash. Must outlive the run.
  MemoryBudget* budget = nullptr;
  // Stall watchdog (common/watchdog.h); may be null. The run heartbeats it
  // from the match loop's interruption probes and at round boundaries, and
  // names the in-flight rule/stratum/round for its stall report. Detection
  // (StallWatchdog::Poll) runs on the owner's monitor thread or test clock;
  // on a stall the watchdog cancels the shared token and the run unwinds
  // with kCancelled at the next interruption point. Must outlive the run.
  StallWatchdog* watchdog = nullptr;
  // Progress publication hook (see ChaseProgress); may be null. Must
  // outlive the run. Purely observational: outside the checkpoint config
  // hash, no effect on outputs.
  ChaseProgress* progress = nullptr;
  // Chaos knobs (tests/CI only): at the start of round `chaos_stall_round`,
  // the driving thread burns wall-clock in short cancellation-polling
  // slices without heartbeating the watchdog for `chaos_stall_ms` — a
  // simulated stuck rule. 0 disables. No chase state changes, so a run
  // killed here resumes byte-identically; outside the config hash.
  int64_t chaos_stall_ms = 0;
  int64_t chaos_stall_round = 2;
  // Crash-safe persistence (io/checkpoint.h, DESIGN.md §9). With a
  // directory set, Run() commits its state at round boundaries: a full
  // snapshot at round 0 (and every `snapshot_every_rounds` rounds), an
  // append-only journal delta every `every_rounds` rounds in between, and
  // a final flush at fixpoint. With `resume` also set, Run() restores a
  // committed checkpoint whose config hash matches this program + EDB +
  // semantics-affecting config, skips the restored rounds, and continues
  // to fixpoint — byte-identical to the uninterrupted run (num_threads,
  // which is ignored, stays outside the config hash).
  //
  // Applies to Run() only; Extend() ignores the policy (its input is an
  // already-saturated result, not a resumable run).
  struct CheckpointPolicy {
    // Filesystem to commit through; null means the real POSIX filesystem.
    // Chaos tests inject MemFs / FaultInjectingFs here.
    Fs* fs = nullptr;
    // Checkpoint directory; empty disables checkpointing entirely.
    std::string dir;
    // Journal a delta every N completed rounds.
    int64_t every_rounds = 1;
    // Replace the snapshot (and reset the journal) every N rounds.
    int64_t snapshot_every_rounds = 16;
    // Resume from the directory's committed checkpoint when present.
    bool resume = false;

    bool enabled() const { return !dir.empty(); }
  };
  CheckpointPolicy checkpoint;
};

// One match of a negative constraint's body (φ(x̄) → ⊥): the instance
// violates the constraint under this homomorphism.
struct ConstraintViolation {
  int rule_index = -1;
  // The homomorphism as the constraint's binding slots (body and
  // assignment variables), named by the chase graph's RuleTable.
  std::vector<Value> values;
  std::vector<FactId> facts;  // the matched body facts, in body order

  // "constraint 'c1' violated with {x=\"A\"}", names from `graph`, the
  // graph the violation was found in.
  std::string ToString(const ChaseGraph& graph) const;
};

// All fields are 64-bit: at the ROADMAP's target scale the fact counts
// outgrow int, and the fields are folded into 64-bit metrics counters
// (chase.facts.*, chase.rounds, chase.matches, chase.join.*) on snapshot
// anyway. ChaseStats travels in the checkpoint cursor, so a resumed run
// reports the uninterrupted run's totals.
struct ChaseStats {
  int64_t initial_facts = 0;
  int64_t derived_facts = 0;
  int64_t rounds = 0;
  int64_t matches = 0;  // body homomorphisms enumerated
  // Per-(rule, round) admission decisions: a rule execution is skipped when
  // none of its semi-naive passes has a pivot row in its window.
  int64_t skipped_rules = 0;
  int64_t executed_rules = 0;
};

// Outcome of a chase run: the chase graph (which doubles as the saturated
// database) and run statistics.
struct ChaseResult {
  ChaseGraph graph;
  ChaseStats stats;
  // Snapshot of ChaseConfig::metrics taken at the end of the run (empty
  // when no registry was attached): per-rule counters, per-phase latency
  // histograms, and the ChaseStats fields as counters.
  obs::MetricsSnapshot metrics;
  // Per-(rule, stratum) cost attribution, collected when a metrics
  // registry is attached (empty otherwise), ordered by rule index then
  // stratum. The count columns are deterministic; the seconds columns are
  // wall-clock and are not (see obs/rule_profile.h).
  std::vector<obs::RuleProfile> rule_profiles;
  // Negative-constraint violations found after fixpoint (empty when the
  // program has no constraints or the instance satisfies them all).
  std::vector<ConstraintViolation> violations;
  // Opaque monotonic-aggregation state, carried so the chase can be
  // extended incrementally (ChaseEngine::Extend). Shared on copy; Extend
  // deep-copies before mutating.
  std::shared_ptr<const AggregateState> aggregate_state;
  // Fingerprint of the program that produced this result; Extend refuses a
  // mismatch.
  size_t program_fingerprint = 0;

  // Id of a fact in the saturated instance, or NotFound.
  Result<FactId> Find(const Fact& fact) const;

  // All facts of a predicate (extensional and derived).
  std::vector<Fact> FactsOf(const std::string& predicate) const;

  // All facts matching `pattern`: same predicate and arity, and equal to
  // every non-Null argument (Null arguments are wildcards; Int(2) matches
  // Double(2.0), as Value::operator== does). Ascending by fact id. A
  // pattern with a bound argument costs the smallest bucket of the graph's
  // position index among its bound positions; a pattern without one costs
  // the facts of its predicate (ChaseGraph::Candidates).
  std::vector<Fact> Match(const Fact& pattern) const;
};

// The chase procedure (§3 of the paper): saturates the database under the
// program's rules until fixpoint, recording full provenance in the chase
// graph. Supports the Vadalog extensions used by the financial KG
// applications: comparisons, arithmetic assignments, monotonic aggregation,
// and existential head variables (labelled nulls with restricted-chase
// style reuse).
class ChaseEngine {
 public:
  explicit ChaseEngine(ChaseConfig config = ChaseConfig());

  // Runs the chase of `program` over the extensional facts `edb`.
  Result<ChaseResult> Run(const Program& program,
                          const std::vector<Fact>& edb) const;

  // Incremental extension: continues a finished chase with `additional`
  // extensional facts, re-deriving only what the delta enables. Valid for
  // monotone programs only — programs with negation are rejected (new
  // facts can invalidate negation-as-failure conclusions), and `base` must
  // have been produced by the same `program`. Constraints are re-checked
  // over the full extended instance.
  Result<ChaseResult> Extend(ChaseResult base, const Program& program,
                             const std::vector<Fact>& additional) const;

 private:
  ChaseConfig config_;
};

// True iff some deriving rule of `program` (not a constraint) has a negated
// atom. ChaseEngine::Extend refuses such a program — new facts can retract
// negation-as-failure conclusions of the base — so a what-if over it
// re-chases from scratch instead.
bool HasDerivingNegation(const Program& program);

// Fingerprint used to tie a ChaseResult to its program (exposed for tests).
size_t ProgramFingerprint(const Program& program);

}  // namespace templex

#endif  // TEMPLEX_ENGINE_CHASE_H_
