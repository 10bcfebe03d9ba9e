#include "engine/chase.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <thread>

#include "common/fs.h"
#include "common/hash.h"
#include "common/memory.h"
#include "common/timer.h"
#include "common/watchdog.h"
#include "engine/aggregate_state.h"
#include "engine/fact_store.h"
#include "engine/matcher.h"
#include "engine/rule_plan.h"
#include "engine/stratification.h"
#include "io/checkpoint.h"
#include "obs/event_log.h"
#include "obs/trace.h"

namespace templex {

namespace {

// Metric segment for a rule: its label, or "rule<i>" for unlabeled rules.
std::string RuleMetricName(const Rule& rule, int index) {
  return rule.label.empty() ? "rule" + std::to_string(index) : rule.label;
}

// Cooperative interruption probe for match enumeration loops. The
// cancellation token is polled on every call (one relaxed atomic load);
// the deadline — a clock read — only every 256 calls, and the stall
// watchdog (when one is attached) is heartbeated every 64 — a stuck rule
// stops petting, a merely slow one keeps the watchdog quiet. Each
// enumeration scope (one rule evaluation, one constraint sweep) owns its
// probe.
class InterruptProbe {
 public:
  InterruptProbe(const Deadline& deadline, const CancellationToken& cancel,
                 StallWatchdog* watchdog, const char* where)
      : deadline_(deadline),
        cancel_(cancel),
        watchdog_(watchdog),
        where_(where) {}

  Status Check() {
    if (cancel_.cancelled()) {
      return Status::Cancelled(std::string("chase cancelled during ") +
                               where_);
    }
    ++calls_;
    if (watchdog_ != nullptr && (calls_ & kPetStrideMask) == 0) {
      watchdog_->Pet();
    }
    if (!deadline_.infinite() && (calls_ & kDeadlineStrideMask) == 0 &&
        deadline_.expired()) {
      return Status::DeadlineExceeded(
          std::string("chase deadline exceeded during ") + where_);
    }
    return Status::OK();
  }

 private:
  static constexpr uint32_t kDeadlineStrideMask = 255;
  static constexpr uint32_t kPetStrideMask = 63;

  const Deadline& deadline_;
  const CancellationToken& cancel_;
  StallWatchdog* watchdog_;
  const char* where_;
  uint32_t calls_ = 0;
};

// Folds a run's terminal interruption into the failure-model counters.
void RecordInterruption(obs::MetricsRegistry* metrics, const Status& status) {
  if (metrics == nullptr) return;
  if (status.code() == StatusCode::kCancelled) {
    metrics->counter("chase.cancelled")->Increment();
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    metrics->counter("chase.deadline_exceeded")->Increment();
  }
}

// Terminal failure path for Run/Extend: counters, a run.failed event, and
// — when the flight recorder has a crash-report path — a dump of its last
// events, so a deadline kill, chaos fault, or torn checkpoint leaves a
// post-mortem naming the in-flight rule/stratum/round.
void RecordFailure(const ChaseConfig& config, const Status& status) {
  RecordInterruption(config.metrics, status);
  if (config.event_log == nullptr) return;
  config.event_log->Log(obs::EventLevel::kError, "chase", "run.failed",
                        {{"status", status.ToString()}});
  if (!config.event_log->options().crash_report_path.empty()) {
    Status dumped = config.event_log->DumpNow(status.ToString());
    (void)dumped;  // the run's own error must win; the dump is best effort
  }
}

class ChaseRun {
 public:
  ChaseRun(const Program& program, const ChaseConfig& config)
      : program_(program),
        config_(config),
        metrics_(config.metrics),
        tracer_(config.tracer),
        event_log_(config.event_log),
        budget_(config.budget),
        watchdog_(config.watchdog),
        store_(&result_.graph),
        aggregates_(static_cast<int>(program.rules().size())) {
    if (metrics_ != nullptr && budget_ != nullptr) {
      memory_bytes_gauge_ = metrics_->gauge("chase.memory.bytes");
      memory_peak_gauge_ = metrics_->gauge("chase.memory.peak_bytes");
      memory_pressure_counter_ =
          metrics_->counter("chase.memory.pressure_events");
      memory_degrade_counter_ = metrics_->counter("chase.memory.degrade_steps");
    }
  }

  Result<ChaseResult> Run(const std::vector<Fact>& edb) {
    obs::Span run_span(tracer_, "chase.run");
    run_span.AddAttribute("edb_facts", static_cast<int64_t>(edb.size()));
    if (event_log_ != nullptr) {
      event_log_->Log(
          obs::EventLevel::kInfo, "chase", "run.start",
          {{"edb_facts", std::to_string(edb.size())},
           {"rules", std::to_string(program_.rules().size())}});
    }
    TEMPLEX_RETURN_IF_ERROR(
        CheckInterruption(config_.deadline, config_.cancel, "chase start"));
    TEMPLEX_RETURN_IF_ERROR(Prepare());
    Result<std::vector<std::vector<int>>> strata = RuleStrata(program_);
    if (!strata.ok()) return strata.status();

    // Resume position: fresh runs start at stratum 0 with a full first
    // evaluation pass; a restored run re-enters the stratified loop exactly
    // at its committed cursor.
    size_t start_stratum = 0;
    FactId resume_delta = -1;
    if (config_.checkpoint.enabled()) {
      TEMPLEX_RETURN_IF_ERROR(InitCheckpointing(edb));
    }
    if (ckpt_ != nullptr && config_.checkpoint.resume && ckpt_->CanResume()) {
      obs::Span restore_span(tracer_, "chase.checkpoint.restore");
      Result<ChaseCheckpoint> loaded = ckpt_->Load(ckpt_config_hash_);
      if (!loaded.ok()) return loaded.status();
      TEMPLEX_RETURN_IF_ERROR(RestoreFrom(std::move(loaded).value(),
                                          strata.value().size(),
                                          &start_stratum, &resume_delta));
    } else {
      for (const Fact& fact : edb) {
        ChaseNode node;
        node.fact = fact;
        auto [id, inserted] = result_.graph.AddNode(std::move(node));
        if (inserted) store_.OnNewFact(id);
      }
      result_.stats.initial_facts = result_.graph.size();
      CompilePlans();
    }
    if (ckpt_ != nullptr) {
      // Round-0 snapshot (or, after a restore, a fresh generation of the
      // restored state): from here on every committed round is resumable.
      TEMPLEX_RETURN_IF_ERROR(CommitSnapshot(
          static_cast<int>(start_stratum), resume_delta));
    }
    PublishProgress();
    // First budget observation covers the seeded (or restored) base before
    // any round runs — a base alone can already cross a watermark, and the
    // round-0 snapshot above makes even that trip resumable.
    TEMPLEX_RETURN_IF_ERROR(
        GovernMemory(static_cast<int>(start_stratum), resume_delta));

    // Stratified evaluation: each stratum runs to fixpoint before any rule
    // that negates its predicates starts. Programs without negation form a
    // single stratum.
    for (size_t s = start_stratum; s < strata.value().size(); ++s) {
      const FactId initial = s == start_stratum ? resume_delta : -1;
      TEMPLEX_RETURN_IF_ERROR(
          RunStratum(strata.value()[s], initial, static_cast<int>(s)));
    }
    if (ckpt_ != nullptr) {
      TEMPLEX_RETURN_IF_ERROR(CommitFinal(strata.value().size()));
    }
    return Finalize();
  }

  Result<ChaseResult> Extend(ChaseResult base,
                             const std::vector<Fact>& additional) {
    obs::Span run_span(tracer_, "chase.extend");
    run_span.AddAttribute("delta_facts",
                          static_cast<int64_t>(additional.size()));
    if (event_log_ != nullptr) {
      event_log_->Log(obs::EventLevel::kInfo, "chase", "extend.start",
                      {{"delta_facts", std::to_string(additional.size())}});
    }
    TEMPLEX_RETURN_IF_ERROR(
        CheckInterruption(config_.deadline, config_.cancel, "chase extend"));
    extend_mode_ = true;
    extend_base_rounds_ = base.stats.rounds;
    // Covers seeding plus incremental derivation; the post-fixpoint
    // constraint re-check is reported by chase.phase.constraints.seconds.
    ScopedTimer extend_timer(&extend_seconds_);
    TEMPLEX_RETURN_IF_ERROR(Prepare());
    if (base.program_fingerprint != ProgramFingerprint(program_)) {
      return Status::InvalidArgument(
          "Extend: the base chase was produced by a different program");
    }
    Result<std::vector<std::vector<int>>> strata = RuleStrata(program_);
    if (!strata.ok()) return strata.status();
    // Negation in a deriving rule makes extension unsound: new facts can
    // retract negation-as-failure conclusions already materialized in the
    // base. (Negation inside constraints is fine — they are re-checked over
    // the full extended instance.)
    for (const Rule& rule : program_.rules()) {
      if (!rule.is_constraint && !rule.negative_body.empty()) {
        return Status::InvalidArgument(
            "Extend: incremental extension is unsound for programs with "
            "negation (new facts can retract negation-as-failure "
            "conclusions); run the chase from scratch");
      }
    }
    // Seed the run from the base result.
    {
      obs::Span seed_span(tracer_, "chase.extend.seed");
      seed_span.AddAttribute("base_facts",
                             static_cast<int64_t>(base.graph.size()));
      // The base run's position index covers its graph unless the result
      // was built by hand; copying it beats re-indexing every base fact.
      const bool index_covers_base =
          base.position_index != nullptr &&
          base.position_index->indexed_facts() == base.graph.size();
      result_.graph = std::move(base.graph);
      if (index_covers_base) store_.SeedPositionIndex(*base.position_index);
      result_.stats = base.stats;
      // chase.join.* of an extension count its own rule executions only.
      result_.stats.skipped_rules = 0;
      result_.stats.executed_rules = 0;
      if (base.aggregate_state != nullptr) {
        aggregates_ = *base.aggregate_state;  // deep copy before mutating
      }
      for (FactId id = 0; id < result_.graph.size(); ++id) {
        if (!index_covers_base) store_.OnNewFact(id);
        for (const Value& arg : result_.graph.node(id).fact.args) {
          if (arg.is_labeled_null()) {
            next_null_id_ =
                std::max(next_null_id_, arg.labeled_null_id() + 1);
          }
        }
      }
    }
    const FactId delta_begin = result_.graph.size();
    int added = 0;
    for (const Fact& fact : additional) {
      ChaseNode node;
      node.fact = fact;
      auto [id, inserted] = result_.graph.AddNode(std::move(node));
      if (inserted) {
        store_.OnNewFact(id);
        ++added;
      }
    }
    result_.stats.initial_facts += added;
    extend_added_ = added;
    extend_start_size_ = result_.graph.size();
    CompilePlans();
    TEMPLEX_RETURN_IF_ERROR(
        RunStratum(strata.value()[0], delta_begin, /*stratum_index=*/0));
    extend_timer.Stop();
    return Finalize();
  }

 private:
  // Evaluates every negative constraint over the saturated instance; each
  // body match (with pre-conditions and negated atoms honoured) is a
  // violation.
  Status CheckConstraints() {
    obs::Span span(tracer_, "chase.constraints");
    double seconds = 0.0;
    std::optional<ScopedTimer> phase_timer;
    if (metrics_ != nullptr) phase_timer.emplace(&seconds);
    Status status = CheckConstraintsBody();
    if (metrics_ != nullptr) {
      phase_timer->Stop();
      constraints_hist_->Observe(seconds);
      metrics_->counter("chase.violations")
          ->Increment(static_cast<int64_t>(result_.violations.size()));
    }
    return status;
  }

  Status CheckConstraintsBody() {
    const FactId limit = result_.graph.size();
    for (const RulePlan& plan : plans_) {
      if (!plan.rule->is_constraint) continue;
      InterruptProbe probe(config_.deadline, config_.cancel, watchdog_,
                           "constraint check");
      auto callback = [this, &plan, &probe](const BodyMatch& match) -> Status {
        TEMPLEX_RETURN_IF_ERROR(probe.Check());
        bool pass = false;
        TEMPLEX_RETURN_IF_ERROR(EvalMatch(plan, match.slots, &pass));
        if (!pass) return Status::OK();
        // A constraint has no aggregate and no head: its binding slots are
        // exactly the body and assignment variables.
        ConstraintViolation violation;
        violation.rule_index = plan.index;
        violation.values.assign(match.slots,
                                match.slots + plan.num_binding_slots());
        violation.facts = match.facts;
        result_.violations.push_back(std::move(violation));
        return Status::OK();
      };
      MatchWindow window;
      window.limit = limit;
      TEMPLEX_RETURN_IF_ERROR(
          EnumerateMatches(plan, store_, result_.graph, window, callback));
    }
    return Status::OK();
  }

  Status Prepare() {
    TEMPLEX_RETURN_IF_ERROR(program_.Validate());
    for (size_t i = 0; i < program_.rules().size(); ++i) {
      plans_.push_back(
          MakeRulePlan(program_.rules()[i], static_cast<int>(i)));
    }
    if (metrics_ != nullptr) {
      for (RulePlan& plan : plans_) {
        if (plan.rule->is_constraint) continue;
        const std::string prefix =
            "chase.rule." + RuleMetricName(*plan.rule, plan.index) + ".";
        plan.matches_counter = metrics_->counter(prefix + "matches");
        plan.firings_counter = metrics_->counter(prefix + "firings");
        plan.duplicates_counter = metrics_->counter(prefix + "duplicates");
      }
      match_hist_ = metrics_->histogram("chase.phase.match.seconds");
      head_hist_ = metrics_->histogram("chase.phase.head.seconds");
      aggregate_hist_ = metrics_->histogram("chase.phase.aggregate.seconds");
      constraints_hist_ =
          metrics_->histogram("chase.phase.constraints.seconds");
    }
    profile_by_plan_.assign(plans_.size(), nullptr);
    return Status::OK();
  }

  // Repoints profile_by_plan_ at the stratum's accumulators (rules belong
  // to exactly one stratum, so each (rule, stratum) cell is created once).
  void SetupStratumProfiles(const std::vector<int>& rule_indexes) {
    std::fill(profile_by_plan_.begin(), profile_by_plan_.end(), nullptr);
    if (metrics_ == nullptr) return;
    for (int index : rule_indexes) {
      const RulePlan& plan = plans_[static_cast<size_t>(index)];
      if (plan.rule->is_constraint) continue;
      obs::RuleProfile& profile = rule_profiles_[{index, cur_stratum_}];
      if (profile.rule.empty()) {
        profile.rule = RuleMetricName(*plan.rule, plan.index);
        profile.stratum = cur_stratum_;
      }
      profile_by_plan_[static_cast<size_t>(index)] = &profile;
    }
  }

  obs::RuleProfile* ProfileFor(const RulePlan& plan) const {
    return profile_by_plan_.empty()
               ? nullptr
               : profile_by_plan_[static_cast<size_t>(plan.index)];
  }

  // Compiles each plan's match program against the run graph's symbol
  // table (interning, so rule predicates without facts still resolve), and
  // installs the plans' labels and binding names as the graph's RuleTable.
  // Must run after the graph that will be chased owns its final
  // SymbolTable — in Extend the base graph, table included, is moved in
  // after Prepare() — and before any rule enumeration.
  void CompilePlans() {
    for (RulePlan& plan : plans_) {
      CompileMatchPlan(&plan, &result_.graph.symbols());
    }
    auto rules = std::make_shared<RuleTable>();
    rules->reserve(plans_.size());
    for (RulePlan& plan : plans_) {
      ResolveNegatedPredicates(&plan, result_.graph.symbols());
      rules->push_back({plan.rule->label, plan.binding_names});
    }
    result_.graph.set_rules(std::move(rules));
  }

  Result<ChaseResult> Finalize() {
    result_.stats.derived_facts =
        result_.graph.size() - result_.stats.initial_facts;
    result_.violations.clear();
    TEMPLEX_RETURN_IF_ERROR(CheckConstraints());
    result_.aggregate_state =
        std::make_shared<const AggregateState>(std::move(aggregates_));
    result_.program_fingerprint = ProgramFingerprint(program_);
    if (metrics_ != nullptr) {
      // Fold ChaseStats into the registry (process-wide totals: a registry
      // shared across runs accumulates), then snapshot into the result.
      metrics_->counter("chase.facts.initial")
          ->Increment(result_.stats.initial_facts);
      metrics_->counter("chase.facts.derived")
          ->Increment(result_.stats.derived_facts);
      metrics_->counter("chase.rounds")->Increment(result_.stats.rounds);
      metrics_->counter("chase.matches")->Increment(result_.stats.matches);
      // Index shape — deterministic (the saturated graph is), so these
      // participate in the determinism tests.
      metrics_->counter("chase.index.predicates")
          ->Increment(static_cast<int64_t>(result_.graph.symbols().size()));
      metrics_->counter("chase.index.position_keys")
          ->Increment(store_.position_index().position_keys());
      metrics_->counter("chase.index.position_entries")
          ->Increment(store_.position_index().position_entries());
      metrics_->counter("chase.index.collision_groups")
          ->Increment(store_.position_index().collision_groups());
      metrics_->counter("chase.join.skipped_rules")
          ->Increment(result_.stats.skipped_rules);
      metrics_->counter("chase.join.executed_rules")
          ->Increment(result_.stats.executed_rules);
      // Per-rule attribution: the deterministic column goes into counters
      // (so it participates in the determinism tests);
      // the wall-clock columns and the stratum assignment are gauges. The
      // map iterates in (rule index, stratum) order, so the result vector
      // is deterministic too.
      for (const auto& [key, profile] : rule_profiles_) {
        (void)key;
        const std::string prefix = "chase.rule." + profile.rule + ".";
        metrics_->counter(prefix + "delta_facts")
            ->Increment(profile.delta_facts);
        metrics_->gauge(prefix + "stratum")
            ->Set(static_cast<double>(profile.stratum));
        metrics_->gauge(prefix + "match_seconds")->Set(profile.match_seconds);
        metrics_->gauge(prefix + "derive_seconds")
            ->Set(profile.derive_seconds);
        result_.rule_profiles.push_back(profile);
      }
      if (extend_mode_) {
        metrics_->counter("chase.extend.runs")->Increment();
        metrics_->counter("chase.extend.delta_facts")
            ->Increment(extend_added_);
        metrics_->counter("chase.extend.derived_facts")
            ->Increment(result_.graph.size() - extend_start_size_);
        metrics_->counter("chase.extend.rounds")
            ->Increment(result_.stats.rounds - extend_base_rounds_);
        metrics_->histogram("chase.extend.seconds")->Observe(extend_seconds_);
      }
      result_.metrics = metrics_->Snapshot();
    }
    // The position index outlives the run for ChaseResult::Match.
    result_.position_index =
        std::make_shared<const PositionIndex>(store_.TakePositionIndex());
    return std::move(result_);
  }

  // One semi-naive pass of a rule execution: the pivot atom, its id
  // window, and how many pivot-predicate rows the window actually holds
  // (the unit delta_facts counts). pivot < 0 is the empty-body full pass.
  struct RulePass {
    int pivot = -1;
    FactId begin = 0;
    FactId end = 0;
    FactId cap = 0;
    int64_t pivot_rows = 0;
  };

  // Everything the round decided about one rule before any matching ran:
  // the passes worth running (pivot windows holding at least one row) and
  // how many passes were dropped. No passes means the rule execution is
  // skipped.
  struct RuleExecutionPlan {
    std::vector<RulePass> passes;
    int passes_skipped = 0;
    FactId delta_begin = 0;  // for the rule.eval event only
    FactId limit = 0;
  };

  // Rows of `predicate` with id in [lo, hi) — a binary search over the
  // graph's ascending per-predicate id list.
  int64_t PredRows(Symbol predicate, FactId lo, FactId hi) const {
    const std::vector<FactId>& ids = result_.graph.FactsOf(predicate);
    auto first = std::lower_bound(ids.begin(), ids.end(), lo);
    auto last = std::lower_bound(first, ids.end(), hi);
    return static_cast<int64_t>(last - first);
  }

  // The admission test, pass by pass: a pass whose pivot window holds zero
  // pivot-predicate rows cannot enumerate a single candidate and is
  // dropped before any matching machinery spins up; a rule all of whose
  // passes drop is skipped outright.
  // Fill-style so the round loop can reuse one plan's vectors across
  // every (rule, round) — the per-round allocation churn showed up
  // on small many-round workloads.
  void PlanRuleExecution(const RulePlan& plan, FactId delta_begin,
                         FactId limit, RuleExecutionPlan* out) {
    RuleExecutionPlan& eplan = *out;
    eplan.passes.clear();
    eplan.passes_skipped = 0;
    eplan.delta_begin = delta_begin;
    eplan.limit = limit;
    if (delta_begin < 0 || !config_.semi_naive) {
      if (plan.rule->body.empty()) {
        // The one empty-body match exists regardless of the database; a
        // full pass must still emit it.
        eplan.passes.push_back(RulePass{});
      } else {
        const int64_t rows = PredRows(plan.body[0].predicate, 0, limit);
        if (rows > 0) {
          eplan.passes.push_back(RulePass{/*pivot=*/0, 0, limit, 0, rows});
        } else {
          ++eplan.passes_skipped;
        }
      }
    } else {
      for (size_t pos = 0; pos < plan.body.size(); ++pos) {
        const int64_t rows =
            PredRows(plan.body[pos].predicate, delta_begin, limit);
        if (rows > 0) {
          eplan.passes.push_back(RulePass{static_cast<int>(pos), delta_begin,
                                          limit, delta_begin, rows});
        } else {
          ++eplan.passes_skipped;
        }
      }
    }
  }

  // Counts the round's decision about one rule and narrates a skip, in
  // stratum rule order.
  void RecordExecution(const RulePlan& plan, const RuleExecutionPlan& eplan) {
    if (!eplan.passes.empty()) {
      ++result_.stats.executed_rules;
      return;
    }
    ++result_.stats.skipped_rules;
    if (event_log_ != nullptr) {
      event_log_->Log(obs::EventLevel::kDebug, "chase", "rule.skip",
                      {{"rule", RuleMetricName(*plan.rule, plan.index)},
                       {"stratum", std::to_string(cur_stratum_)},
                       {"round", std::to_string(cur_round_)},
                       {"passes_skipped",
                        std::to_string(eplan.passes_skipped)}});
    }
  }

  // Runs rules to fixpoint. With initial_delta < 0, the first pass
  // evaluates over every fact derived so far (fresh run / new stratum);
  // otherwise only matches touching [initial_delta, ...) run (incremental
  // extension of an already-saturated instance, or a resumed checkpoint).
  Status RunStratum(const std::vector<int>& rule_indexes,
                    FactId initial_delta, int stratum_index) {
    cur_stratum_ = stratum_index;
    SetupStratumProfiles(rule_indexes);
    if (event_log_ != nullptr) {
      event_log_->Log(
          obs::EventLevel::kInfo, "chase", "stratum.start",
          {{"stratum", std::to_string(stratum_index)},
           {"rules", std::to_string(rule_indexes.size())}});
    }
    bool first_pass = initial_delta < 0;
    FactId delta_begin = first_pass ? 0 : initial_delta;
    while (true) {
      const FactId limit = result_.graph.size();
      PublishProgress();
      if (!first_pass && delta_begin >= limit) break;  // fixpoint
      TEMPLEX_RETURN_IF_ERROR(CheckInterruption(config_.deadline,
                                                config_.cancel,
                                                "chase round boundary"));
      if (result_.stats.rounds >= config_.max_rounds) {
        return LimitTripped(
            "max_rounds", config_.max_rounds,
            "max_rounds limit tripped: chase did not reach fixpoint within "
            "max_rounds=" +
                std::to_string(config_.max_rounds));
      }
      ++result_.stats.rounds;
      cur_round_ = result_.stats.rounds;
      if (watchdog_ != nullptr) {
        watchdog_->SetContext("", stratum_index, cur_round_);
        watchdog_->Pet();
      }
      obs::Span round_span(tracer_, "chase.round");
      round_span.AddAttribute("round", result_.stats.rounds)
          .AddAttribute("facts", static_cast<int64_t>(limit));
      if (event_log_ != nullptr) {
        event_log_->Log(
            obs::EventLevel::kInfo, "chase", "round.start",
            {{"round", std::to_string(result_.stats.rounds)},
             {"stratum", std::to_string(stratum_index)},
             {"facts", std::to_string(limit)},
             {"delta_begin",
              first_pass ? std::string("full") : std::to_string(delta_begin)}});
      }
      if (config_.chaos_stall_ms > 0 &&
          result_.stats.rounds == config_.chaos_stall_round) {
        TEMPLEX_RETURN_IF_ERROR(ChaosStall());
      }
      for (int index : rule_indexes) {
        PlanRuleExecution(plans_[index], first_pass ? -1 : delta_begin, limit,
                          &eplan_scratch_);
        RecordExecution(plans_[index], eplan_scratch_);
        if (eplan_scratch_.passes.empty()) continue;
        TEMPLEX_RETURN_IF_ERROR(EvaluateRule(plans_[index], eplan_scratch_));
      }
      first_pass = false;
      delta_begin = limit;
      // Commit the finished round before the next boundary's fixpoint and
      // interruption checks: an abort can only lose uncommitted work, never
      // committed rounds. `delta_begin` is the cursor — a resumed run
      // re-enters the loop with the same window.
      TEMPLEX_RETURN_IF_ERROR(CommitRound(stratum_index, delta_begin));
      // Reconcile the footprint once per completed round, after the
      // commit: a hard verdict then save-and-stops on exactly the state
      // the cursor names. One Observe per round keeps the fault
      // injector's observation index — and so a seeded chaos sweep —
      // aligned with round numbers.
      TEMPLEX_RETURN_IF_ERROR(GovernMemory(stratum_index, delta_begin));
    }
    return Status::OK();
  }

  // Burns wall-clock at a round boundary without heartbeating the watchdog —
  // a simulated stuck rule (ChaseConfig chaos knobs, tests/CI only). Sleeps
  // in short slices so the watchdog's cancellation still unwinds the run
  // promptly. No chase state changes: a run killed here resumes
  // byte-identically.
  Status ChaosStall() {
    if (event_log_ != nullptr) {
      event_log_->Log(obs::EventLevel::kWarn, "chase", "chaos.stall",
                      {{"stall_ms", std::to_string(config_.chaos_stall_ms)},
                       {"round", std::to_string(cur_round_)},
                       {"stratum", std::to_string(cur_stratum_)}});
    }
    const auto until =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config_.chaos_stall_ms);
    while (std::chrono::steady_clock::now() < until) {
      if (config_.cancel.cancelled()) {
        return Status::Cancelled("chase cancelled during chaos stall");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::OK();
  }

  // Names the guard rail that stopped the run — in the Status message (the
  // caller passes one that leads with the limit's name) and in an error-level
  // limit.tripped flight-recorder record, so "which limit?" never requires
  // reading the code.
  Status LimitTripped(const char* limit, int64_t value, std::string message) {
    if (event_log_ != nullptr) {
      event_log_->Log(obs::EventLevel::kError, "chase", "limit.tripped",
                      {{"limit", limit},
                       {"value", std::to_string(value)},
                       {"round", std::to_string(result_.stats.rounds)},
                       {"stratum", std::to_string(cur_stratum_)},
                       {"facts", std::to_string(result_.graph.size())}});
    }
    return Status::ResourceExhausted(std::move(message));
  }

  // ---------------------------------------------------------------------
  // Resource governor (common/memory.h, DESIGN.md §11). No-ops without a
  // budget; otherwise one content-based footprint reconciliation per round.

  // The run's accounted footprint: chase graph + provenance, position
  // index, and aggregate state. Every term is a pure function of derived
  // content (string lengths + element sizes, never container capacities),
  // so the figure is byte-identical across checkpoint resume — which keeps
  // a budget sweep deterministic.
  int64_t FootprintBytes() const {
    return result_.graph.approx_bytes() + store_.approx_bytes() +
           aggregates_.approx_bytes();
  }

  // One degradation step per soft observation, cheapest accessory state
  // first; returns what was shed (null once the ladder is exhausted).
  const char* Degrade() {
    switch (degrade_step_++) {
      case 0:
        // Span buffers are diagnostics only; Spans handle a null tracer.
        tracer_ = nullptr;
        return "tracer";
      case 1:
        if (event_log_ != nullptr) event_log_->ShrinkRings(32);
        return "event_rings";
      default:
        --degrade_step_;  // stay saturated, don't creep toward overflow
        return nullptr;
    }
  }

  // Mirrors the run's position into the attached ChaseProgress (if any) so
  // a host process can report warm-up progress without touching the
  // mid-chase graph. See chase.h.
  void PublishProgress() {
    if (config_.progress == nullptr) return;
    config_.progress->rounds.store(result_.stats.rounds,
                                   std::memory_order_relaxed);
    config_.progress->facts.store(static_cast<int64_t>(result_.graph.size()),
                                  std::memory_order_relaxed);
  }

  // Round-boundary budget reconciliation. Soft pressure sheds one ladder
  // step; hard pressure (real or injected) is save-and-stop: the round that
  // just committed is the resume point, a final delta commits if the round
  // cadence skipped it, and the run returns kResourceExhausted — resuming
  // without the budget continues byte-identically.
  Status GovernMemory(int stratum_index, FactId resume_delta) {
    if (budget_ == nullptr) return Status::OK();
    const int64_t footprint = FootprintBytes();
    const MemoryBudget::Observation obs = budget_->Observe(footprint);
    if (memory_bytes_gauge_ != nullptr) {
      memory_bytes_gauge_->Set(static_cast<double>(footprint));
      memory_peak_gauge_->Set(static_cast<double>(budget_->peak_bytes()));
      if (obs.transitioned) memory_pressure_counter_->Increment();
    }
    if (obs.pressure == MemoryPressure::kNone) return Status::OK();
    if (obs.pressure == MemoryPressure::kSoft) {
      const char* shed = Degrade();
      if (shed == nullptr) return Status::OK();  // ladder exhausted
      if (memory_degrade_counter_ != nullptr) {
        memory_degrade_counter_->Increment();
      }
      if (event_log_ != nullptr) {
        event_log_->Log(
            obs::EventLevel::kWarn, "chase", "memory.pressure",
            {{"pressure", MemoryPressureName(obs.pressure)},
             {"bytes", std::to_string(footprint)},
             {"soft_limit",
              std::to_string(budget_->options().soft_limit_bytes)},
             {"shed", shed},
             {"round", std::to_string(result_.stats.rounds)}});
      }
      return Status::OK();
    }
    // Hard watermark (or injected fault): save-and-stop. CommitRound's
    // cadence may have skipped this round — force a delta so the committed
    // cursor names exactly the state the error message promises.
    if (ckpt_ != nullptr &&
        (committed_cursor_.stratum_index != stratum_index ||
         committed_cursor_.resume_delta != resume_delta)) {
      TEMPLEX_RETURN_IF_ERROR(CommitDelta(stratum_index, resume_delta));
    }
    return LimitTripped(
        "max_bytes", budget_->options().hard_limit_bytes,
        std::string("max_bytes limit tripped (") +
            (obs.injected ? "injected fault" : "hard watermark") +
            "): footprint " + std::to_string(footprint) +
            " bytes, hard limit " +
            std::to_string(budget_->options().hard_limit_bytes) +
            " after round " + std::to_string(result_.stats.rounds) +
            (ckpt_ != nullptr
                 ? "; committed checkpoint is resumable without the budget"
                 : "; enable checkpointing to make this trip resumable"));
  }

  // -------------------------------------------------------------------------
  // Crash-safe checkpointing (io/checkpoint.h, DESIGN.md §9). Run()-only;
  // every method below no-ops (or is never called) when the policy is off.

  Status InitCheckpointing(const std::vector<Fact>& edb) {
    Fs* fs = config_.checkpoint.fs != nullptr ? config_.checkpoint.fs
                                              : RealFilesystem();
    ckpt_ = std::make_unique<CheckpointStore>(fs, config_.checkpoint.dir,
                                              metrics_, event_log_);
    TEMPLEX_RETURN_IF_ERROR(ckpt_->Open());
    // The config hash ties a checkpoint to everything that shapes the
    // derivation sequence: format version, program text, the EDB facts in
    // order, and the semantics-affecting config knobs. Deliberately outside
    // the hash: num_threads (ignored: the chase runs on one thread),
    // deadline/cancel, the max_rounds/max_facts guard rails (raising a
    // limit to finish an interrupted run must not orphan its checkpoint),
    // and the resource-governance knobs — budget, watchdog, chaos_stall_* —
    // so a run save-and-stopped by its memory budget resumes on a bigger
    // box with the budget simply removed.
    uint64_t h = HashCombine(0, kCheckpointFormatVersion);
    h = HashCombine(h, static_cast<uint64_t>(ProgramFingerprint(program_)));
    for (const Fact& fact : edb) {
      h = HashCombine(h, static_cast<uint64_t>(fact.Hash()));
    }
    h = HashCombine(h, config_.semi_naive ? 1 : 0);
    h = HashCombine(
        h, static_cast<uint64_t>(config_.max_alternative_derivations));
    ckpt_config_hash_ = h;
    return Status::OK();
  }

  // Rebuilds the run's full state from a loaded checkpoint: symbol table
  // (in id order, so re-interning anywhere later is a lookup hit), compiled
  // plans and RuleTable, chase graph + fact store, aggregate state, stats,
  // null counter, and cursor. Structural inconsistencies are kDataLoss: the
  // records passed their CRCs, so a violated invariant means the
  // checkpoint lies about itself.
  Status RestoreFrom(ChaseCheckpoint checkpoint, size_t num_strata,
                     size_t* start_stratum, FactId* resume_delta) {
    SymbolTable& symbols = result_.graph.symbols();
    for (const std::string& name : checkpoint.symbols) {
      symbols.Intern(name);
    }
    if (symbols.size() != static_cast<int>(checkpoint.symbols.size())) {
      return Status::DataLoss(
          "checkpoint: symbol table contains duplicates");
    }
    // The checkpointed run compiled its plans before deriving anything, so
    // every rule predicate is in the restored table: compiling only looks
    // symbols up.
    CompilePlans();
    const FactId total = static_cast<FactId>(checkpoint.nodes.size());
    for (FactId i = 0; i < total; ++i) {
      ChaseNode node = std::move(checkpoint.nodes[i]);
      // A derivation stores its rule's binding slots, no more and no fewer.
      // Primary parents precede the fact; alternative parents may postdate
      // it (acyclic, not id-ordered), but must exist.
      for (size_t k = 0; k <= node.alternatives.size(); ++k) {
        const Derivation& d =
            k == 0 ? node.derivation : node.alternatives[k - 1];
        const RuleSchema* rule = result_.graph.rule(d.rule_index);
        if (d.rule_index >= 0 && rule == nullptr) {
          return Status::DataLoss("checkpoint: fact " + std::to_string(i) +
                                  " derived by out-of-range rule " +
                                  std::to_string(d.rule_index));
        }
        const size_t slots = rule != nullptr ? rule->binding_names.size() : 0;
        if (d.values.size() != slots) {
          return Status::DataLoss(
              "checkpoint: fact " + std::to_string(i) + " has " +
              std::to_string(d.values.size()) + " binding values where its "
              "rule has " + std::to_string(slots) + " slots");
        }
        const FactId parent_end = k == 0 ? i : total;
        for (FactId parent : d.parents) {
          if (parent < 0 || parent >= parent_end) {
            return Status::DataLoss("checkpoint: fact " + std::to_string(i) +
                                    " has out-of-range parent " +
                                    std::to_string(parent));
          }
        }
      }
      auto [id, inserted] = result_.graph.AddNode(std::move(node));
      if (!inserted || id != i) {
        return Status::DataLoss("checkpoint: duplicate fact at id " +
                                std::to_string(i));
      }
      store_.OnNewFact(id);
    }
    for (const AggregateEntryRecord& entry : checkpoint.aggregates) {
      if (entry.rule_index < 0 ||
          entry.rule_index >= aggregates_.num_rules()) {
        return Status::DataLoss(
            "checkpoint: aggregate entry for out-of-range rule " +
            std::to_string(entry.rule_index));
      }
      aggregates_.Restore(entry.rule_index, entry.group_key,
                          entry.contributor_key, entry.value, entry.parents);
    }
    const CheckpointCursor& cursor = checkpoint.cursor;
    if (cursor.stratum_index < 0 ||
        static_cast<size_t>(cursor.stratum_index) > num_strata) {
      return Status::DataLoss("checkpoint: cursor at out-of-range stratum " +
                              std::to_string(cursor.stratum_index));
    }
    result_.stats = cursor.stats;
    next_null_id_ = cursor.next_null_id;
    *start_stratum = static_cast<size_t>(cursor.stratum_index);
    *resume_delta = cursor.resume_delta;
    if (metrics_ != nullptr) {
      metrics_->counter("checkpoint.resume.rounds_skipped")
          ->Increment(cursor.stats.rounds);
    }
    return Status::OK();
  }

  CheckpointCursor MakeCursor(int stratum_index, FactId resume_delta) const {
    CheckpointCursor cursor;
    cursor.stratum_index = stratum_index;
    cursor.resume_delta = resume_delta;
    cursor.stats = result_.stats;
    cursor.next_null_id = next_null_id_;
    return cursor;
  }

  // Remembers the committed watermarks and drops the pending change lists.
  void MarkCommitted() {
    last_committed_round_ = result_.stats.rounds;
    last_committed_size_ = result_.graph.size();
    last_committed_symbols_ = result_.graph.symbols().size();
    pending_alternatives_.clear();
    pending_aggregates_.clear();
  }

  // Round-boundary policy: journal a delta every `every_rounds` completed
  // rounds, promote to a full snapshot (new journal generation) every
  // `snapshot_every_rounds`.
  Status CommitRound(int stratum_index, FactId resume_delta) {
    if (ckpt_ == nullptr) return Status::OK();
    if (result_.stats.rounds - last_committed_round_ <
        config_.checkpoint.every_rounds) {
      return Status::OK();
    }
    if (result_.stats.rounds - last_snapshot_round_ >=
        config_.checkpoint.snapshot_every_rounds) {
      return CommitSnapshot(stratum_index, resume_delta);
    }
    return CommitDelta(stratum_index, resume_delta);
  }

  // Flushes whatever the round policy left uncommitted once the strata
  // loop reaches fixpoint, so a completed run's checkpoint always points
  // at its final state (resuming it is a no-op that reproduces the result).
  Status CommitFinal(size_t num_strata) {
    if (ckpt_ == nullptr) return Status::OK();
    const int last_stratum =
        num_strata == 0 ? 0 : static_cast<int>(num_strata) - 1;
    const FactId size = result_.graph.size();
    if (result_.stats.rounds == last_committed_round_ &&
        size == last_committed_size_ && pending_alternatives_.empty() &&
        pending_aggregates_.empty()) {
      // Nothing happened since the last commit, but the cursor may still
      // point into an earlier stratum whose fixpoint round was the last
      // committed one; the delta below would be empty, so skip it only
      // when the committed cursor already equals the final one.
      if (committed_cursor_.stratum_index == last_stratum &&
          committed_cursor_.resume_delta == size) {
        return Status::OK();
      }
    }
    return CommitDelta(last_stratum, size);
  }

  Status CommitSnapshot(int stratum_index, FactId resume_delta) {
    obs::Span span(tracer_, "chase.checkpoint.snapshot");
    ChaseCheckpoint snapshot;
    snapshot.config_hash = ckpt_config_hash_;
    const SymbolTable& symbols = result_.graph.symbols();
    snapshot.symbols.reserve(static_cast<size_t>(symbols.size()));
    for (Symbol s = 0; s < symbols.size(); ++s) {
      snapshot.symbols.push_back(symbols.name(s));
    }
    snapshot.nodes.reserve(static_cast<size_t>(result_.graph.size()));
    for (FactId id = 0; id < result_.graph.size(); ++id) {
      snapshot.nodes.push_back(result_.graph.node(id));
    }
    aggregates_.ForEach([&snapshot](int rule_index,
                                    const std::vector<Value>& group_key,
                                    const std::vector<Value>& contributor_key,
                                    const Value& value,
                                    const std::vector<FactId>& parents) {
      AggregateEntryRecord entry;
      entry.rule_index = rule_index;
      entry.group_key = group_key;
      entry.contributor_key = contributor_key;
      entry.value = value;
      entry.parents = parents;
      snapshot.aggregates.push_back(std::move(entry));
    });
    snapshot.cursor = MakeCursor(stratum_index, resume_delta);
    TEMPLEX_RETURN_IF_ERROR(ckpt_->WriteSnapshot(snapshot));
    committed_cursor_ = snapshot.cursor;
    last_snapshot_round_ = result_.stats.rounds;
    MarkCommitted();
    return Status::OK();
  }

  Status CommitDelta(int stratum_index, FactId resume_delta) {
    obs::Span span(tracer_, "chase.checkpoint.delta");
    CheckpointDelta delta;
    delta.cursor = MakeCursor(stratum_index, resume_delta);
    const SymbolTable& symbols = result_.graph.symbols();
    for (Symbol s = last_committed_symbols_; s < symbols.size(); ++s) {
      delta.new_symbols.push_back(symbols.name(s));
    }
    delta.nodes.reserve(
        static_cast<size_t>(result_.graph.size() - last_committed_size_));
    for (FactId id = last_committed_size_; id < result_.graph.size(); ++id) {
      // Alternatives gained by these new nodes travel in the alternatives
      // stream below (the serializer strips them), preserving arrival
      // order across the whole delta.
      delta.nodes.push_back(result_.graph.node(id));
    }
    delta.alternatives.reserve(pending_alternatives_.size());
    for (const auto& [fact, index] : pending_alternatives_) {
      AlternativeRecord record;
      record.fact = fact;
      record.derivation =
          result_.graph.node(fact).alternatives[static_cast<size_t>(index)];
      delta.alternatives.push_back(std::move(record));
    }
    delta.aggregates = std::move(pending_aggregates_);
    TEMPLEX_RETURN_IF_ERROR(ckpt_->AppendDelta(delta));
    committed_cursor_ = delta.cursor;
    MarkCommitted();
    return Status::OK();
  }

 private:
  // Evaluates one non-skipped rule execution: every planned pass. With a
  // registry attached, the evaluation is timed and decomposed into the
  // match / head-creation / aggregation phases: head and aggregation scopes
  // accumulate into their own cells, and the matching share is the
  // remainder of the whole-evaluation time.
  Status EvaluateRule(const RulePlan& plan, const RuleExecutionPlan& eplan) {
    if (watchdog_ != nullptr) {
      // Name the rule the stall report would blame.
      watchdog_->SetContext(RuleMetricName(*plan.rule, plan.index),
                            cur_stratum_, cur_round_);
    }
    if (event_log_ != nullptr) {
      event_log_->Log(obs::EventLevel::kDebug, "chase", "rule.eval",
                      {{"rule", RuleMetricName(*plan.rule, plan.index)},
                       {"stratum", std::to_string(cur_stratum_)},
                       {"round", std::to_string(cur_round_)},
                       {"delta_begin", std::to_string(eplan.delta_begin)},
                       {"limit", std::to_string(eplan.limit)}});
    }
    if (metrics_ == nullptr && tracer_ == nullptr) {
      return EvaluateRuleBody(plan, eplan);
    }
    obs::Span span(tracer_, "chase.rule");
    span.AddAttribute("rule", RuleMetricName(*plan.rule, plan.index));
    if (metrics_ == nullptr) return EvaluateRuleBody(plan, eplan);
    const double head_before = head_seconds_;
    const double aggregate_before = aggregate_seconds_;
    double eval_seconds = 0.0;
    Status status;
    {
      ScopedTimer timer(&eval_seconds);
      status = EvaluateRuleBody(plan, eplan);
    }
    const double head = head_seconds_ - head_before;
    const double aggregate = aggregate_seconds_ - aggregate_before;
    match_hist_->Observe(std::max(0.0, eval_seconds - head - aggregate));
    if (head > 0.0) head_hist_->Observe(head);
    if (aggregate > 0.0) aggregate_hist_->Observe(aggregate);
    if (obs::RuleProfile* profile = ProfileFor(plan)) {
      profile->match_seconds += std::max(0.0, eval_seconds - head - aggregate);
      profile->derive_seconds += head + aggregate;
    }
    return status;
  }

  Status EvaluateRuleBody(const RulePlan& plan,
                          const RuleExecutionPlan& eplan) {
    obs::RuleProfile* profile = ProfileFor(plan);
    InterruptProbe probe(config_.deadline, config_.cancel, watchdog_,
                         "rule evaluation");
    auto callback = [this, &plan, profile,
                     &probe](const BodyMatch& match) -> Status {
      TEMPLEX_RETURN_IF_ERROR(probe.Check());
      ++result_.stats.matches;
      if (plan.matches_counter != nullptr) plan.matches_counter->Increment();
      if (profile != nullptr) ++profile->matches;
      return ProcessMatch(plan, match);
    };
    // delta_facts counts the pivot-predicate rows each executed pass
    // actually scans; skipped passes contribute zero.
    for (const RulePass& pass : eplan.passes) {
      if (profile != nullptr) profile->delta_facts += pass.pivot_rows;
      MatchWindow window;
      window.limit = eplan.limit;
      window.pivot_atom = pass.pivot;
      window.pivot_begin = pass.begin;
      window.pivot_end = pass.end;
      window.pre_pivot_cap = pass.cap;
      TEMPLEX_RETURN_IF_ERROR(
          EnumerateMatches(plan, store_, result_.graph, window, callback));
    }
    return Status::OK();
  }

  // Negation-as-failure: true iff no stored fact unifies with `atom` under
  // the match's slots. Stratification guarantees the negated predicate is
  // already saturated when this runs; validation guarantees every negated
  // variable is body-bound, so each position compares against a constant
  // or a slot.
  bool NegatedAtomHolds(const AtomPlan& atom, const Value* slots) const {
    const std::vector<FactId>& candidates = store_.CandidatesFor(atom, slots);
    const size_t n = candidates.size();
    for (size_t i = 0; i < n; ++i) {
      const Fact& fact = result_.graph.node(candidates[i]).fact;
      // Candidate lists are keyed by hashed position keys, so a collision
      // can surface another predicate's facts.
      if (fact.pred_symbol != atom.predicate || fact.arity() != atom.arity) {
        continue;
      }
      bool matched = true;
      for (int pos = 0; pos < atom.arity && matched; ++pos) {
        const TermPlan& t = atom.terms[pos];
        if (t.is_constant) {
          matched = t.constant == fact.args[pos];
        } else if (t.slot >= 0) {
          matched = slots[t.slot] == fact.args[pos];
        }
      }
      if (matched) return false;
    }
    return true;
  }

  // The filter on a body homomorphism: negation-as-failure, assignments
  // (written into their slots), and pre-aggregate conditions. Shared by
  // rule evaluation and the constraint sweep. *pass is false when the
  // match was filtered out.
  Status EvalMatch(const RulePlan& plan, Value* slots, bool* pass) const {
    *pass = false;
    for (const AtomPlan& atom : plan.negative_body) {
      if (!NegatedAtomHolds(atom, slots)) return Status::OK();
    }
    for (const SlotAssignment& a : plan.assignments) {
      Result<Value> v = EvalSlotExpr(a.expr, slots);
      if (!v.ok()) return v.status();
      slots[a.slot] = std::move(v).value();
    }
    for (const SlotCondition& c : plan.pre_condition_plans) {
      Result<bool> holds = EvalSlotCondition(c, slots);
      if (!holds.ok()) return holds.status();
      if (!holds.value()) return Status::OK();
    }
    *pass = true;
    return Status::OK();
  }

  // Filters a match, then updates the aggregation state and emits the
  // head. The match's slots have room for all of the rule's binding slots.
  Status ProcessMatch(const RulePlan& plan, const BodyMatch& match) {
    bool pass = false;
    TEMPLEX_RETURN_IF_ERROR(EvalMatch(plan, match.slots, &pass));
    if (!pass) return Status::OK();
    if (plan.rule->has_aggregate()) {
      return ProcessAggregateMatch(plan, match.slots, match.facts);
    }
    return EmitHead(plan, match.slots, match.facts, nullptr);
  }

  Status ProcessAggregateMatch(const RulePlan& plan, Value* slots,
                               std::span<const FactId> facts) {
    // Stopped before EmitHead so head-creation time is not double-counted.
    std::optional<ScopedTimer> phase_timer;
    if (metrics_ != nullptr) phase_timer.emplace(&aggregate_seconds_);
    const Aggregate& agg = *plan.rule->aggregate;
    if (plan.input_slot < 0) {
      return Status::Internal("aggregate input unbound in rule '" +
                              plan.rule->label + "'");
    }
    const Value& input = slots[plan.input_slot];
    if (agg.function != AggregateFunction::kCount && !input.is_numeric()) {
      return Status::InvalidArgument(
          "non-numeric aggregate input in rule '" + plan.rule->label +
          "': " + input.ToString());
    }
    auto fill_key = [slots](const std::vector<int>& key_slots,
                            std::vector<Value>* key) {
      key->resize(key_slots.size());
      for (size_t i = 0; i < key_slots.size(); ++i) {
        (*key)[i] = key_slots[i] >= 0 ? slots[key_slots[i]] : Value::Null();
      }
    };
    fill_key(plan.group_slots, &group_key_scratch_);
    fill_key(plan.contributor_slots, &contributor_key_scratch_);
    AggregateState::GroupRef group;
    std::optional<Value> aggregate = aggregates_.Contribute(
        plan.index, agg.function, plan.explicit_contributor_keys,
        group_key_scratch_, contributor_key_scratch_, input, facts, &group);
    if (!aggregate.has_value()) return Status::OK();
    if (ckpt_ != nullptr) {
      // The group's state changed, and the stored entry is now (input,
      // parents) — journal the update before post-conditions, which
      // filter the head but not the state.
      AggregateEntryRecord record;
      record.rule_index = plan.index;
      record.group_key = group_key_scratch_;
      record.contributor_key = contributor_key_scratch_;
      record.value = input;
      record.parents.assign(facts.begin(), facts.end());
      pending_aggregates_.push_back(std::move(record));
    }
    slots[plan.result_slot] = std::move(*aggregate);
    for (const SlotCondition& c : plan.post_condition_plans) {
      Result<bool> holds = EvalSlotCondition(c, slots);
      if (!holds.ok()) return holds.status();
      if (!holds.value()) return Status::OK();
    }
    if (phase_timer.has_value()) phase_timer->Stop();
    return EmitHead(plan, slots, facts, &group);
  }

  // Existential reuse (restricted-chase style): true iff some stored fact
  // of the head predicate agrees with the head atom on every position the
  // body binds — then no new fact (with fresh nulls) is invented. Probes
  // the position index on the bound positions.
  bool HeadAlreadySatisfied(const RulePlan& plan, const Value* slots) const {
    const AtomPlan& head = plan.head;
    const std::vector<FactId>& candidates = store_.CandidatesFor(head, slots);
    const size_t n = candidates.size();
    for (size_t i = 0; i < n; ++i) {
      const Fact& existing = result_.graph.node(candidates[i]).fact;
      if (existing.pred_symbol != head.predicate ||
          existing.arity() != head.arity) {
        continue;
      }
      bool agrees = true;
      for (int pos = 0; pos < head.arity && agrees; ++pos) {
        const TermPlan& t = head.terms[pos];
        if (t.is_constant) {
          agrees = t.constant == existing.args[pos];
        } else if (t.bound_at_entry) {
          agrees = slots[t.slot] == existing.args[pos];
        }
      }
      if (agrees) return true;
    }
    return false;
  }

  // Instantiates the head over the slots and adds it unless present. The
  // chase graph is probed once; the node's binding values, parents and
  // contributions are materialized only for a new fact (and, for a
  // duplicate, only if MaybeRecordAlternative keeps it). `group` names the
  // aggregate group whose provenance the head carries; null for rules
  // without an aggregate, whose parents are the match's facts.
  Status EmitHead(const RulePlan& plan, Value* slots,
                  std::span<const FactId> facts,
                  const AggregateState::GroupRef* group) {
    std::optional<ScopedTimer> phase_timer;
    if (metrics_ != nullptr) phase_timer.emplace(&head_seconds_);
    if (plan.has_existentials() && HeadAlreadySatisfied(plan, slots)) {
      return Status::OK();
    }
    Fact fact;
    fact.predicate = plan.rule->head.predicate;
    fact.args.reserve(plan.head.terms.size());
    for (const TermPlan& t : plan.head.terms) {
      if (t.is_constant) {
        fact.args.push_back(t.constant);
        continue;
      }
      if (t.binds) slots[t.slot] = Value::LabeledNull(next_null_id_++);
      fact.args.push_back(slots[t.slot]);
    }
    const size_t hash = fact.Hash();
    const std::optional<FactId> existing = result_.graph.Find(fact, hash);
    obs::RuleProfile* profile = ProfileFor(plan);
    if (existing.has_value()) {
      if (plan.firings_counter != nullptr) plan.firings_counter->Increment();
      if (plan.duplicates_counter != nullptr) {
        plan.duplicates_counter->Increment();
      }
      if (profile != nullptr) {
        ++profile->firings;
        ++profile->duplicates;
      }
      MaybeRecordAlternative(*existing, plan, slots, facts, group);
      return Status::OK();
    }
    // Only a new fact grows the chase, so only a new fact can trip the cap:
    // a fixpoint of exactly max_facts facts completes.
    if (result_.graph.size() >= config_.max_facts) {
      return LimitTripped(
          "max_facts", config_.max_facts,
          "max_facts limit tripped: chase holds " +
              std::to_string(result_.graph.size()) +
              " facts and the head of rule '" + plan.rule->label +
              "' needs another (max_facts=" +
              std::to_string(config_.max_facts) + ")");
    }
    ChaseNode node;
    node.fact = std::move(fact);
    BuildDerivation(plan, slots, DerivationParents(facts, group), group,
                    &node.derivation);
    const FactId id = result_.graph.Insert(std::move(node), hash);
    store_.OnNewFact(id);
    if (plan.firings_counter != nullptr) plan.firings_counter->Increment();
    if (profile != nullptr) ++profile->firings;
    return Status::OK();
  }

  // The parents of a derivation by `plan`: the match's facts, or for an
  // aggregate the union over `group`'s contributions, built in scratch.
  std::span<const FactId> DerivationParents(
      std::span<const FactId> facts, const AggregateState::GroupRef* group) {
    if (group == nullptr) return facts;
    aggregates_.UnionParents(*group, &parents_scratch_);
    return parents_scratch_;
  }

  // Fills `out` with the derivation of a head by `plan` over `slots`. The
  // parents are copied with an exact-size assign: vectors grown in scratch
  // and moved into the graph would keep their slack.
  void BuildDerivation(const RulePlan& plan, const Value* slots,
                       std::span<const FactId> parents,
                       const AggregateState::GroupRef* group,
                       Derivation* out) const {
    out->rule_index = plan.index;
    out->values.assign(slots, slots + plan.num_binding_slots());
    out->parents.assign(parents.begin(), parents.end());
    if (group != nullptr) {
      aggregates_.Contributions(*group, &out->contributions);
    }
  }

  // Keeps a bounded list of acyclic re-derivations of an existing fact that
  // tell a different story (other reasoning stories for the analyst). The
  // cap is checked before anything is materialized; an aggregate
  // candidate's parent union is built only once it tells a new story, and
  // its binding values and contributions only once it is recorded.
  void MaybeRecordAlternative(FactId id, const RulePlan& plan,
                              const Value* slots,
                              std::span<const FactId> facts,
                              const AggregateState::GroupRef* group) {
    if (config_.max_alternative_derivations <= 0) return;
    ChaseNode& existing = result_.graph.mutable_node(id);
    if (static_cast<int>(existing.alternatives.size()) >=
        config_.max_alternative_derivations) {
      return;
    }
    // Distinctness first: re-finding a recorded story is by far the common
    // case (aggregates re-emit their group every round), and the tests are
    // int compares — the ancestor walk below is O(sub-graph) and must only
    // run for genuinely new stories. A rule without an aggregate repeats a
    // story with the same parents. An aggregate re-emission repeats one
    // whenever a recorded derivation by its rule has parents included in
    // the candidate's: the same monotonic fold seen again with more
    // contributors, which maps onto the same reasoning path (DESIGN.md §3).
    // Its parents are stamped straight from the group's contributors.
    bool marked = false;
    for (size_t k = 0; k <= existing.alternatives.size(); ++k) {
      const Derivation& known =
          k == 0 ? existing.derivation : existing.alternatives[k - 1];
      if (known.rule_index != plan.index) continue;
      if (group == nullptr) {
        if (std::ranges::equal(known.parents, facts)) return;
        continue;
      }
      if (!marked) {
        MarkGroupParents(*group);
        marked = true;
      }
      if (std::ranges::all_of(known.parents, [this](FactId parent) {
            return parent_stamp_[parent] == parent_epoch_;
          })) {
        return;
      }
    }
    const std::span<const FactId> parents = DerivationParents(facts, group);
    // Acyclic only: no parent may (transitively, along primary
    // derivations) depend on the fact itself, or proofs built from the
    // alternative would loop. Ids are no proxy here — a fact derived later
    // can still be independent.
    for (FactId parent : parents) {
      if (result_.graph.DependsOn(parent, id)) return;
    }
    BuildDerivation(plan, slots, parents, group,
                    &existing.alternatives.emplace_back());
    // Insert charged the node without this alternative; account the growth
    // so the governed footprint matches a restore (whose nodes arrive with
    // alternatives attached and are charged whole).
    result_.graph.AddApproxBytes(ApproxBytes(existing.alternatives.back()));
    if (ckpt_ != nullptr) {
      pending_alternatives_.emplace_back(
          id, static_cast<int>(existing.alternatives.size()) - 1);
    }
  }

  // Stamps the parents of `group`'s contributions with a fresh epoch in
  // parent_stamp_, so an inclusion test is one compare per id and
  // allocates nothing.
  void MarkGroupParents(AggregateState::GroupRef group) {
    if (parent_stamp_.size() < static_cast<size_t>(result_.graph.size())) {
      parent_stamp_.resize(result_.graph.size(), 0);
    }
    if (++parent_epoch_ == 0) {  // wrapped: old marks could alias the epoch
      std::fill(parent_stamp_.begin(), parent_stamp_.end(), 0);
      parent_epoch_ = 1;
    }
    aggregates_.ForEachParent(group, [this](FactId parent) {
      parent_stamp_[parent] = parent_epoch_;
    });
  }

  const Program& program_;
  const ChaseConfig& config_;
  obs::MetricsRegistry* metrics_;  // may be null
  obs::Tracer* tracer_;            // may be null; nulled by Degrade()
  obs::EventLog* event_log_;       // may be null
  MemoryBudget* budget_;           // may be null: no governor
  StallWatchdog* watchdog_;        // may be null: no stall detection
  // Next rung of the degradation ladder (see Degrade); saturates at 2.
  int degrade_step_ = 0;
  // Resolved chase.memory.* instruments (null without metrics + budget; the
  // four are set together, so one null test covers them).
  obs::Gauge* memory_bytes_gauge_ = nullptr;
  obs::Gauge* memory_peak_gauge_ = nullptr;
  obs::Counter* memory_pressure_counter_ = nullptr;
  obs::Counter* memory_degrade_counter_ = nullptr;
  ChaseResult result_;
  FactStore store_;
  AggregateState aggregates_;
  std::vector<RulePlan> plans_;
  int64_t next_null_id_ = 1;
  // Scratch of the apply side, reused across matches: the aggregate keys,
  // and the parents of a head before they are copied into the graph.
  std::vector<Value> group_key_scratch_;
  std::vector<Value> contributor_key_scratch_;
  std::vector<FactId> parents_scratch_;
  // Epoch stamps over fact ids, marking a candidate alternative's parents
  // (MarkGroupParents).
  std::vector<uint32_t> parent_stamp_;
  uint32_t parent_epoch_ = 0;
  // Checkpointing state (Run() with ChaseConfig::checkpoint enabled; null /
  // empty otherwise). The watermarks delimit what the next delta carries;
  // the pending lists capture mutations of pre-watermark state that a
  // size-based diff would miss (alternatives attached to old facts,
  // aggregate-group updates).
  std::unique_ptr<CheckpointStore> ckpt_;
  uint64_t ckpt_config_hash_ = 0;
  int64_t last_committed_round_ = 0;
  int64_t last_snapshot_round_ = 0;
  FactId last_committed_size_ = 0;
  int last_committed_symbols_ = 0;
  CheckpointCursor committed_cursor_;
  std::vector<std::pair<FactId, int>> pending_alternatives_;
  std::vector<AggregateEntryRecord> pending_aggregates_;
  // Extend-run bookkeeping for the chase.extend.* metrics.
  bool extend_mode_ = false;
  double extend_seconds_ = 0.0;
  int64_t extend_added_ = 0;
  int64_t extend_base_rounds_ = 0;
  int64_t extend_start_size_ = 0;
  // Per-rule cost attribution, collected when metrics_ is set. The map is
  // keyed (plan index, stratum) — node references are stable, so
  // profile_by_plan_ caches one raw pointer per plan for the running
  // stratum (null for constraints and for plans outside it) and the hot
  // paths pay one pointer test. cur_stratum_/cur_round_ also tag flight-
  // recorder events, so they advance even without a registry.
  std::map<std::pair<int, int>, obs::RuleProfile> rule_profiles_;
  std::vector<obs::RuleProfile*> profile_by_plan_;
  int cur_stratum_ = 0;
  int64_t cur_round_ = 0;
  // Reused by the sequential round loop; see PlanRuleExecution.
  RuleExecutionPlan eplan_scratch_;
  // Per-phase accumulators (seconds), only touched when metrics_ is set;
  // phase scopes add to them via ScopedTimer, EvaluateRule observes the
  // per-evaluation deltas into the histograms below.
  double head_seconds_ = 0.0;
  double aggregate_seconds_ = 0.0;
  obs::Histogram* match_hist_ = nullptr;
  obs::Histogram* head_hist_ = nullptr;
  obs::Histogram* aggregate_hist_ = nullptr;
  obs::Histogram* constraints_hist_ = nullptr;
};

}  // namespace

std::string ConstraintViolation::ToString(const ChaseGraph& graph) const {
  return "constraint '" + graph.RuleLabel(rule_index) + "' violated with " +
         graph.BindingToString(rule_index, values);
}

Result<FactId> ChaseResult::Find(const Fact& fact) const {
  std::optional<FactId> id = graph.Find(fact);
  if (!id.has_value()) {
    return Status::NotFound("fact not in chase: " + fact.ToString());
  }
  return *id;
}

std::vector<Fact> ChaseResult::FactsOf(const std::string& predicate) const {
  std::vector<Fact> facts;
  for (FactId id : graph.FactsOf(predicate)) {
    facts.push_back(graph.node(id).fact);
  }
  return facts;
}

std::vector<Fact> ChaseResult::Match(const Fact& pattern) const {
  std::vector<Fact> answers;
  const Symbol predicate = graph.symbols().Lookup(pattern.predicate);
  if (predicate == kInvalidSymbol) return answers;
  const std::vector<FactId>* candidates = &graph.FactsOf(predicate);
  if (position_index != nullptr &&
      position_index->indexed_facts() == graph.size()) {
    for (int pos = 0; pos < pattern.arity(); ++pos) {
      if (pattern.args[pos].is_null()) continue;
      const std::vector<FactId>* bucket =
          position_index->Find(predicate, pos, pattern.args[pos]);
      if (bucket == nullptr) return answers;  // no fact can match
      if (bucket->size() < candidates->size()) candidates = bucket;
    }
  }
  // Buckets may merge predicates, positions and values (PosKey
  // collisions), so every candidate is checked in full.
  for (FactId id : *candidates) {
    const Fact& fact = graph.node(id).fact;
    if (fact.pred_symbol != predicate || fact.arity() != pattern.arity()) {
      continue;
    }
    bool ok = true;
    for (int pos = 0; pos < pattern.arity() && ok; ++pos) {
      const Value& want = pattern.args[pos];
      if (!want.is_null()) ok = want == fact.args[pos];
    }
    if (ok) answers.push_back(fact);
  }
  return answers;
}

ChaseEngine::ChaseEngine(ChaseConfig config) : config_(std::move(config)) {}

Result<ChaseResult> ChaseEngine::Run(const Program& program,
                                     const std::vector<Fact>& edb) const {
  ChaseRun run(program, config_);
  Result<ChaseResult> result = run.Run(edb);
  if (!result.ok()) RecordFailure(config_, result.status());
  return result;
}

Result<ChaseResult> ChaseEngine::Extend(
    ChaseResult base, const Program& program,
    const std::vector<Fact>& additional) const {
  ChaseRun run(program, config_);
  Result<ChaseResult> result = run.Extend(std::move(base), additional);
  if (!result.ok()) RecordFailure(config_, result.status());
  return result;
}

size_t ProgramFingerprint(const Program& program) {
  const std::string text = program.ToString() + "\n@goal " +
                           program.goal_predicate();
  size_t h = 1469598103934665603ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace templex
