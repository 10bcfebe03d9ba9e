// Microbenchmarks for the reasoning substrate: chase throughput over
// growing instances, the semi-naive vs naive ablation, join selectivity,
// and aggregation overhead (the design choices DESIGN.md calls out).

#include <benchmark/benchmark.h>

#include <set>

#include "apps/application.h"
#include "apps/generators.h"
#include "apps/glossaries.h"
#include "apps/programs.h"
#include "datalog/parser.h"
#include "engine/chase.h"
#include "engine/fact_store.h"
#include "engine/matcher.h"
#include "engine/proof.h"
#include "engine/query.h"
#include "engine/rule_plan.h"

namespace {

using namespace templex;

std::vector<Fact> OwnershipEdb(int companies) {
  OwnershipNetworkOptions options;
  options.companies = companies;
  options.chains = companies / 10 + 1;
  options.chain_length = 5;
  options.stars = companies / 15 + 1;
  options.noise_edges = companies * 2;
  Rng rng(7);
  return GenerateOwnershipNetwork(options, &rng);
}

void BM_ChaseCompanyControl(benchmark::State& state) {
  Program program = CompanyControlProgram();
  std::vector<Fact> edb = OwnershipEdb(static_cast<int>(state.range(0)));
  ChaseEngine engine;
  int64_t derived = 0;
  int64_t alternatives = 0;
  double bytes_per_fact = 0;
  for (auto _ : state) {
    auto result = engine.Run(program, edb);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    const ChaseGraph& graph = result.value().graph;
    derived = result.value().stats.derived_facts;
    benchmark::DoNotOptimize(graph.size());
    state.PauseTiming();  // the counters' walk is not part of the chase
    alternatives = 0;
    for (FactId id = 0; id < graph.size(); ++id) {
      alternatives += static_cast<int64_t>(graph.node(id).alternatives.size());
    }
    bytes_per_fact = static_cast<double>(graph.approx_bytes()) / graph.size();
    state.ResumeTiming();
  }
  state.counters["edb"] = static_cast<double>(edb.size());
  state.counters["derived"] = static_cast<double>(derived);
  state.counters["alternatives"] = static_cast<double>(alternatives);
  state.counters["approx_bytes_per_fact"] = bytes_per_fact;
}
BENCHMARK(BM_ChaseCompanyControl)
    ->Arg(20)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(800);

// The apply layer in isolation: a σ3-shaped monotonic sum whose body join
// is trivial (one Share per Link), over groups of k contributors — about
// 8192 contributions in all. Every contribution changes its group, so
// each one folds the group, checks the post-condition and emits the head:
// a new fact the first time the sum crosses 0.5, a duplicate (and, up to
// the alternative cap, a recorded alternative) after that.
void BM_AggregateApply(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int groups = 8192 / k;
  Program program = ParseProgram(R"(
agg: Link(x, z), Share(z, y, s), ts = sum(s, [z]), ts > 0.5 -> Linked(x, y).
)")
                        .value();
  std::vector<Fact> edb;
  for (int g = 0; g < groups; ++g) {
    const Value holder = Value::String("h" + std::to_string(g));
    const Value target = Value::String("t" + std::to_string(g));
    for (int i = 0; i < k; ++i) {
      const Value via =
          Value::String("v" + std::to_string(g) + "_" + std::to_string(i));
      edb.push_back(Fact{"Link", {holder, via}});
      edb.push_back(Fact{"Share", {via, target, Value::Double(1.0 / k)}});
    }
  }
  ChaseEngine engine;
  for (auto _ : state) {
    auto result = engine.Run(program, edb);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result.value().graph.size());
  }
  state.counters["contributions"] = static_cast<double>(groups * k);
}
BENCHMARK(BM_AggregateApply)->Arg(8)->Arg(64);

// A bound, derivable point-query goal Control(X, _). The small-cone
// subject has the FEWEST derived non-reflexive controls — a typical
// low-degree entity; the large-cone subject has the MOST — a hub whose
// control cone spans the network. Deterministic given OwnershipEdb's fixed
// seed.
Fact PointQueryGoal(const Program& program, const std::vector<Fact>& edb,
                    bool large_cone = false) {
  auto chase = ChaseEngine().Run(program, edb);
  std::map<std::string, int> degree;
  if (chase.ok()) {
    for (FactId id : chase.value().graph.FactsOf("Control")) {
      const ChaseNode& node = chase.value().graph.node(id);
      if (node.is_extensional()) continue;
      if (node.fact.args[0] == node.fact.args[1]) continue;
      ++degree[node.fact.args[0].ToString()];
    }
  }
  std::string best;
  int best_degree = -1;
  for (const auto& [subject, count] : degree) {
    if (best_degree < 0 ||
        (large_cone ? count > best_degree : count < best_degree)) {
      best = subject;
      best_degree = count;
    }
  }
  if (best_degree < 0) {
    return Fact{"Control", {Value::String(CompanyName(0)), Value::Null()}};
  }
  // degree keys are ToString()ed strings: strip the quotes.
  return Fact{"Control",
              {Value::String(best.substr(1, best.size() - 2)), Value::Null()}};
}

// One QueryEvaluator leg of the point-query benches (engine/query.h):
// kQsqr forces the relevance pass + restricted chase, kAuto lets the
// planner choose (query_driven counter: 1 when the run was query-driven).
void BM_PointQueryCompanyControlCone(benchmark::State& state, EvalMode mode,
                                     bool large_cone) {
  Program program = CompanyControlProgram();
  std::vector<Fact> edb = OwnershipEdb(static_cast<int>(state.range(0)));
  Fact goal = PointQueryGoal(program, edb, large_cone);
  ChaseConfig config;
  int64_t answers = 0;
  int64_t relevant = 0;
  bool query_driven = false;
  for (auto _ : state) {
    auto result = QueryEvaluator(config).Evaluate(program, edb, goal, mode);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    answers = result.value().stats.answers;
    relevant = result.value().stats.relevant_edb_facts;
    query_driven = result.value().stats.query_driven;
    benchmark::DoNotOptimize(result.value().answers.size());
  }
  state.counters["edb"] = static_cast<double>(edb.size());
  state.counters["relevant_edb"] = static_cast<double>(relevant);
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["query_driven"] = query_driven ? 1.0 : 0.0;
}

void BM_PointQueryCompanyControl(benchmark::State& state) {
  // Query-driven evaluation, forced: QSQR relevance pass + restricted
  // chase. Compare against BM_PointQueryCompanyControlMaterialize — the
  // whole point is that a bound goal stops paying for the full chase.
  BM_PointQueryCompanyControlCone(state, EvalMode::kQsqr, false);
}
BENCHMARK(BM_PointQueryCompanyControl)->Arg(20)->Arg(50)->Arg(100)->Arg(400);

void BM_PointQueryCompanyControlAuto(benchmark::State& state) {
  // The same goal under the default plan.
  BM_PointQueryCompanyControlCone(state, EvalMode::kAuto, false);
}
BENCHMARK(BM_PointQueryCompanyControlAuto)
    ->Arg(20)->Arg(50)->Arg(100)->Arg(400);

// The large-cone subject at 400 companies: about two thirds of the EDB is
// relevant, so the restricted chase is nearly a full one.
BENCHMARK_CAPTURE(BM_PointQueryCompanyControlCone, large_qsqr, EvalMode::kQsqr,
                  true)
    ->Arg(400);
BENCHMARK_CAPTURE(BM_PointQueryCompanyControlCone, large_auto, EvalMode::kAuto,
                  true)
    ->Arg(400);

void BM_PointQueryCompanyControlMaterialize(benchmark::State& state) {
  // The classic strategy for the same goal: materialize the full chase,
  // then filter. This is what every point query paid before query-driven
  // evaluation existed.
  Program program = CompanyControlProgram();
  std::vector<Fact> edb = OwnershipEdb(static_cast<int>(state.range(0)));
  Fact goal = PointQueryGoal(program, edb);
  ChaseEngine engine;
  int64_t answers = 0;
  for (auto _ : state) {
    auto result = engine.Run(program, edb);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    answers = static_cast<int64_t>(result.value().Match(goal).size());
    benchmark::DoNotOptimize(answers);
  }
  state.counters["edb"] = static_cast<double>(edb.size());
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_PointQueryCompanyControlMaterialize)
    ->Arg(20)->Arg(50)->Arg(100)->Arg(400);

void BM_AppQueryBound(benchmark::State& state) {
  // The lookup layer alone, as the daemon's /query runs it: one
  // materialized CompanyControl app, then bound Control(s, _) queries over
  // a rotating list of controlling companies (ChaseResult::Match probing
  // the chase's position index).
  auto app = KnowledgeGraphApplication::Create(CompanyControlProgram(),
                                               CompanyControlGlossary());
  if (!app.ok()) {
    state.SkipWithError(app.status().ToString().c_str());
    return;
  }
  app.value()->AddFacts(OwnershipEdb(static_cast<int>(state.range(0))));
  Status run = app.value()->Run();
  if (!run.ok()) {
    state.SkipWithError(run.ToString().c_str());
    return;
  }
  std::vector<Fact> goals;
  std::set<std::string> seen;
  for (FactId id : app.value()->chase().graph.FactsOf("Control")) {
    const Fact& fact = app.value()->chase().graph.node(id).fact;
    if (fact.args[0] == fact.args[1]) continue;
    if (seen.insert(fact.args[0].ToString()).second) {
      goals.push_back(Fact{"Control", {fact.args[0], Value::Null()}});
    }
  }
  if (goals.empty()) {
    state.SkipWithError("no controlling company");
    return;
  }
  size_t next = 0;
  int64_t answers = 0;
  for (auto _ : state) {
    std::vector<Fact> found = app.value()->Query(goals[next]);
    answers += static_cast<int64_t>(found.size());
    benchmark::DoNotOptimize(found.data());
    next = (next + 1) % goals.size();
  }
  state.counters["controllers"] = static_cast<double>(goals.size());
  state.counters["answers_per_query"] = benchmark::Counter(
      static_cast<double>(answers), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AppQueryBound)->Arg(100)->Arg(400);

void BM_ChaseSemiNaiveVsNaive(benchmark::State& state) {
  Program program = CompanyControlProgram();
  std::vector<Fact> edb = OwnershipEdb(60);
  ChaseConfig config;
  config.semi_naive = state.range(0) != 0;
  ChaseEngine engine(config);
  for (auto _ : state) {
    auto result = engine.Run(program, edb);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result.value().stats.matches);
  }
}
BENCHMARK(BM_ChaseSemiNaiveVsNaive)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"semi_naive"});

void BM_ChaseStressCascade(benchmark::State& state) {
  Program program = StressTestProgram();
  Rng rng(11);
  SampledInstance instance =
      SampleStressCascade(static_cast<int>(state.range(0)), 2, &rng);
  ChaseEngine engine;
  for (auto _ : state) {
    auto result = engine.Run(program, instance.edb);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result.value().graph.size());
  }
}
BENCHMARK(BM_ChaseStressCascade)->Arg(4)->Arg(10)->Arg(22);

void BM_TransitiveClosure(benchmark::State& state) {
  // Pure join/recursion throughput without aggregation: a path closure over
  // a ring of n nodes derives n^2 facts.
  Program program = ParseProgram(R"(
e: Edge(x, y) -> Path(x, y).
t: Path(x, y), Edge(y, z) -> Path(x, z).
)")
                        .value();
  const int n = static_cast<int>(state.range(0));
  std::vector<Fact> edb;
  for (int i = 0; i < n; ++i) {
    edb.push_back(
        Fact{"Edge", {Value::Int(i), Value::Int((i + 1) % n)}});
  }
  ChaseEngine engine;
  for (auto _ : state) {
    auto result = engine.Run(program, edb);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result.value().graph.size());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_TransitiveClosure)->Arg(16)->Arg(32)->Arg(64);

void BM_IncrementalExtendVsRechase(benchmark::State& state) {
  // Adding one ownership edge to a saturated 150-company network:
  // incremental extension (arg 1) vs full re-chase (arg 0).
  Program program = CompanyControlProgram();
  std::vector<Fact> edb = OwnershipEdb(150);
  ChaseEngine engine;
  auto base = engine.Run(program, edb);
  if (!base.ok()) {
    state.SkipWithError("base chase failed");
    return;
  }
  std::vector<Fact> extra = {
      Fact{"Own",
           {Value::String(CompanyName(1)), Value::String(CompanyName(2)),
            Value::Double(0.77)}}};
  const bool incremental = state.range(0) != 0;
  for (auto _ : state) {
    if (incremental) {
      ChaseResult copy = base.value();
      auto extended = engine.Extend(std::move(copy), program, extra);
      if (!extended.ok()) state.SkipWithError("extend failed");
      benchmark::DoNotOptimize(extended.value().graph.size());
    } else {
      std::vector<Fact> all = edb;
      all.insert(all.end(), extra.begin(), extra.end());
      auto rechase = engine.Run(program, all);
      if (!rechase.ok()) state.SkipWithError("rechase failed");
      benchmark::DoNotOptimize(rechase.value().graph.size());
    }
  }
}
BENCHMARK(BM_IncrementalExtendVsRechase)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"incremental"});

void BM_MatcherEnumeration(benchmark::State& state) {
  // The match enumerator alone (no head application): a 3-atom join over a
  // dense binary relation, sourced the way the chase sources it — the
  // position-index probe on each atom's bound positions. Sensitive to the
  // per-candidate binding cost and to the index lookup.
  const Rule rule =
      ParseRule("j: Edge(x, y), Edge(y, z), Edge(z, w) -> Quad(x, w).")
          .value();
  const int n = static_cast<int>(state.range(0));
  ChaseGraph graph;
  FactStore store(&graph);
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= 3; ++d) {
      ChaseNode node;
      node.fact = Fact{"Edge", {Value::Int(i), Value::Int((i + d) % n)}};
      auto [id, inserted] = graph.AddNode(std::move(node));
      if (inserted) store.OnNewFact(id);
    }
  }
  RulePlan plan = MakeRulePlan(rule, 0);
  CompileMatchPlan(&plan, graph.symbols());
  MatchWindow window;
  window.limit = graph.size();
  int64_t matches = 0;
  for (auto _ : state) {
    matches = 0;
    auto status = EnumerateMatches(plan, store, graph, window,
                                   [&matches](const BodyMatch&) {
                                     ++matches;
                                     return Status::OK();
                                   });
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * matches);
}
BENCHMARK(BM_MatcherEnumeration)->Arg(32)->Arg(128);

// The chase graph's dedup layer alone: insert N distinct ownership-shaped
// facts into a fresh graph, then Find each of them and one absent fact —
// the probe ApplyHead makes for every head it instantiates.
void BM_ChaseGraphDedup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<Fact> facts;
  facts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    facts.push_back(Fact{"Own",
                         {Value::String("c" + std::to_string(i / 8)),
                          Value::String("c" + std::to_string(i)),
                          Value::Double(1.0 / (1 + i % 8))}});
  }
  const Fact missing{"Own", {Value::String("c0"), Value::String("c0"),
                             Value::Double(2.0)}};
  for (auto _ : state) {
    ChaseGraph graph;
    for (const Fact& fact : facts) {
      ChaseNode node;
      node.fact = fact;
      graph.AddNode(std::move(node));
    }
    int found = 0;
    for (const Fact& fact : facts) found += graph.Find(fact).has_value();
    if (found != n || graph.Find(missing).has_value()) {
      state.SkipWithError("dedup lost or invented a fact");
      break;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChaseGraphDedup)->Arg(16384)->Arg(131072);

void BM_ProofExtraction(benchmark::State& state) {
  Program program = CompanyControlProgram();
  Rng rng(13);
  SampledInstance instance =
      SampleControlChain(static_cast<int>(state.range(0)), &rng);
  auto chase = ChaseEngine().Run(program, instance.edb);
  if (!chase.ok()) {
    state.SkipWithError("chase failed");
    return;
  }
  FactId goal = chase.value().Find(instance.goal).value();
  for (auto _ : state) {
    Proof proof = Proof::Extract(chase.value().graph, goal);
    benchmark::DoNotOptimize(proof.num_chase_steps());
  }
}
BENCHMARK(BM_ProofExtraction)->Arg(5)->Arg(21);

}  // namespace

// Custom main (instead of benchmark::benchmark_main) so the JSON context
// reports *this repo's* build type. The stock "library_build_type" field
// describes how the google-benchmark library was compiled — on systems
// with a debug-built system benchmark it says "debug" even for a Release
// build of templex, which is the number that actually matters for a
// committed baseline. tools/bench_baseline gates on this key.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("templex_build_type", "release");
#else
  benchmark::AddCustomContext("templex_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
