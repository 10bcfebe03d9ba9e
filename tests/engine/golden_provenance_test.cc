// Golden provenance digests: the chase's output — every fact with its id,
// deriving rule, binding, parents, aggregate contributions and recorded
// alternatives, plus the run statistics and every counter — hashed into
// one 64-bit digest per configuration and pinned as a constant (kGolden
// says when each was recorded), so any drift in provenance bytes, fact
// ids, binding entry order, contribution order or alternative selection
// fails here by name. Each run configuration executes at 1, 2 and 8
// threads, which must all produce the one pinned digest.
//
// To re-pin after an intentional output change: run the test and copy the
// "actual" digests from the failure messages — and say in the change
// description why the bytes moved.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/generators.h"
#include "apps/programs.h"
#include "common/fs.h"
#include "common/rng.h"
#include "datalog/parser.h"
#include "engine/chase.h"
#include "obs/metrics.h"

namespace templex {
namespace {

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Serializes everything a reader of the chase can observe: ids are the
// line numbers, and counters are appended when `counters` is set (a
// resumed run only counts its own post-resume work, so resume checks
// compare the graph and stats alone).
std::string Dump(const ChaseResult& chase, bool counters) {
  std::ostringstream out;
  const ChaseGraph& graph = chase.graph;
  auto describe = [&out, &graph](const Derivation& d) {
    out << "|rule=" << d.rule_index << "/" << graph.RuleLabel(d.rule_index)
        << "|theta=" << graph.BindingToString(d.rule_index, d.values)
        << "|parents=";
    for (FactId parent : d.parents) out << parent << ",";
    out << "|contrib=";
    for (const AggregateContribution& c : d.contributions) {
      out << c.input.ToString() << "<-";
      for (FactId parent : c.parents) out << parent << ",";
      out << ";";
    }
  };
  for (FactId id = 0; id < chase.graph.size(); ++id) {
    const ChaseNode& node = chase.graph.node(id);
    out << id << ":" << node.fact.ToString();
    describe(node.derivation);
    for (const Derivation& alt : node.alternatives) {
      out << "|alt:";
      describe(alt);
    }
    out << "\n";
  }
  // Symbol ids in interning order: checkpoints store the table this way.
  out << "symbols";
  for (Symbol sym = 0; sym < chase.graph.symbols().size(); ++sym) {
    out << " " << chase.graph.symbols().name(sym);
  }
  out << "\n";
  out << "stats " << chase.stats.initial_facts << " "
      << chase.stats.derived_facts << " " << chase.stats.rounds << " "
      << chase.stats.matches << " " << chase.stats.skipped_rules << " "
      << chase.stats.executed_rules << "\n";
  if (counters) {
    for (const obs::CounterSnapshot& c : chase.metrics.counters) {
      out << c.name << "=" << c.value << "\n";
    }
  }
  return out.str();
}

struct RunOptions {
  int threads = 1;
  int max_alternatives = 4;
};

uint64_t RunDigest(const Program& program, const std::vector<Fact>& edb,
                   const RunOptions& options) {
  obs::MetricsRegistry metrics;
  ChaseConfig config;
  config.num_threads = options.threads;
  config.max_alternative_derivations = options.max_alternatives;
  config.metrics = &metrics;
  Result<ChaseResult> chase = ChaseEngine(config).Run(program, edb);
  EXPECT_TRUE(chase.ok()) << chase.status().ToString();
  if (!chase.ok()) return 0;
  return Fnv1a(Dump(chase.value(), /*counters=*/true));
}

std::vector<Fact> ControlEdb() {
  OwnershipNetworkOptions options;
  options.companies = 60;
  options.chains = 4;
  options.stars = 4;
  options.star_contributors = 4;
  options.noise_edges = 140;
  options.company_facts = true;
  Rng rng(7);
  return GenerateOwnershipNetwork(options, &rng);
}

// The control network plus the golden-power markers: every third company
// strategic, every fourth foreign, and an acquisition over every fifth
// ownership edge.
std::vector<Fact> GoldenPowerEdb() {
  std::vector<Fact> edb = ControlEdb();
  std::vector<std::string> companies;
  std::set<std::string> seen;
  std::vector<Fact> acquisitions;
  int own_index = 0;
  for (const Fact& fact : edb) {
    if (fact.predicate != "Own") continue;
    for (int pos = 0; pos < 2; ++pos) {
      const std::string& name = fact.args[pos].string_value();
      if (seen.insert(name).second) companies.push_back(name);
    }
    if (own_index++ % 5 == 0) {
      acquisitions.push_back(
          Fact{"Acquisition",
               {fact.args[0], fact.args[1],
                Value::String("d" + std::to_string(own_index))}});
    }
  }
  for (size_t i = 0; i < companies.size(); ++i) {
    if (i % 3 == 0) {
      edb.push_back(Fact{"Strategic", {Value::String(companies[i])}});
    }
    if (i % 4 == 1) {
      edb.push_back(Fact{"Foreign", {Value::String(companies[i])}});
    }
  }
  edb.insert(edb.end(), acquisitions.begin(), acquisitions.end());
  return edb;
}

std::vector<Fact> StressEdb() {
  DebtNetworkOptions options;
  options.institutions = 60;
  options.cascade_length = 12;
  options.extra_debts = 600;
  options.debts_per_channel = 3;
  Rng rng(7);
  return GenerateDebtNetwork(options, &rng);
}

std::vector<Fact> CloseLinksEdb() {
  OwnershipDagOptions options;
  options.layers = 5;
  options.width = 5;
  options.edge_prob = 0.5;
  Rng rng(7);
  return GenerateOwnershipDag(options, &rng);
}

// Negation whose negated predicate is derived by a later rule (in a lower
// stratum): the predicate's symbol must come from that rule's head, not
// from the negated atom, or symbol ids (and checkpoint bytes) shift. r3
// negates a predicate nothing holds, which must get no symbol at all.
Program NegationProgram() {
  return ParseProgram(R"(
@goal Free.
r1: Own(x, y, s), not Blocked(y) -> Free(x, y).
r2: Own(x, y, s), s > 0.5 -> Blocked(y).
r3: Company(x), not Listed(x) -> Private(x).
)")
      .value();
}

struct Golden {
  const char* app;
  int max_alternatives;
  uint64_t digest;
};

// The cap-0 digests and Negation's were recorded from the pre-rewrite
// engine (string-keyed apply path). The cap-1 and cap-4 digests of the
// aggregate apps, kGoldenExtend and kGoldenControlGraph were re-pinned when
// an aggregate re-emission over a superset of a recorded derivation's
// parents stopped counting as an alternative. For CompanyControl and
// GoldenPower no fact keeps a second alternative at these sizes, so caps 1
// and 4 agree, and CloseLinks keeps none. StressTest's caps differ: σ7's
// sum(e, [t]) keeps one contributor per channel t, so a re-emission after
// a channel's Risk fact grows swaps a parent rather than adding one and is
// kept. 33 Default facts keep an alternative; at cap 4, 14 of them keep
// two or more (Default("Credit17") keeps four).
constexpr Golden kGolden[] = {
    {"CompanyControl", 0, 0xa0b9ab923f4cd992ULL},
    {"CompanyControl", 1, 0x9d7760d3bace9c5cULL},
    {"CompanyControl", 4, 0x9d7760d3bace9c5cULL},
    {"GoldenPower", 0, 0xc8fbe243dae880ebULL},
    {"GoldenPower", 1, 0x24771181cfa036afULL},
    {"GoldenPower", 4, 0x24771181cfa036afULL},
    {"StressTest", 0, 0xc0499a0594b6024bULL},
    {"StressTest", 1, 0xddf2c1ac2801fddULL},
    {"StressTest", 4, 0xd7413bb0f26bc77eULL},
    {"CloseLinks", 0, 0x9e0c9dbf3a4249b4ULL},
    {"CloseLinks", 1, 0x9e0c9dbf3a4249b4ULL},
    {"CloseLinks", 4, 0x9e0c9dbf3a4249b4ULL},
    {"Negation", 4, 0xe21212c6f8267f5aULL},
};
constexpr uint64_t kGoldenExtend = 0x9a3e18f3bd3130c2ULL;
// The resumed run's graph and stats equal the uninterrupted run's; this is
// the counter-free digest of CompanyControl at max_alternatives 4.
constexpr uint64_t kGoldenControlGraph = 0x60e0407d24354eedULL;

void AppInputs(const std::string& app, Program* program,
               std::vector<Fact>* edb) {
  if (app == "CompanyControl") {
    *program = CompanyControlProgram();
    *edb = ControlEdb();
  } else if (app == "GoldenPower") {
    *program = GoldenPowerProgram();
    *edb = GoldenPowerEdb();
  } else if (app == "Negation") {
    *program = NegationProgram();
    *edb = ControlEdb();
  } else if (app == "StressTest") {
    *program = StressTestProgram();
    *edb = StressEdb();
  } else {
    *program = CloseLinksProgram();
    *edb = CloseLinksEdb();
  }
}

std::string Hex(uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v << "ULL";
  return out.str();
}

TEST(GoldenProvenanceTest, AppsAtEveryThreadCountAndAlternativeCap) {
  for (const Golden& golden : kGolden) {
    Program program;
    std::vector<Fact> edb;
    AppInputs(golden.app, &program, &edb);
    for (int threads : {1, 2, 8}) {
      RunOptions options;
      options.threads = threads;
      options.max_alternatives = golden.max_alternatives;
      const uint64_t digest = RunDigest(program, edb, options);
      EXPECT_EQ(Hex(digest), Hex(golden.digest))
          << golden.app << " max_alternatives=" << golden.max_alternatives
          << " threads=" << threads;
    }
  }
}

TEST(GoldenProvenanceTest, ExtendMatchesGolden) {
  const Program program = CompanyControlProgram();
  std::vector<Fact> edb = ControlEdb();
  // Hold back every seventh ownership edge and add it through Extend.
  std::vector<Fact> base;
  std::vector<Fact> delta;
  int own_index = 0;
  for (const Fact& fact : edb) {
    if (fact.predicate == "Own" && own_index++ % 7 == 3) {
      delta.push_back(fact);
    } else {
      base.push_back(fact);
    }
  }
  // The new Own facts under σ3 give the extension a semi-naive pass whose
  // pivot is past the first body atom; its fact ids must not depend on the
  // thread count.
  for (int threads : {1, 2, 8}) {
    ChaseConfig config;
    config.num_threads = threads;
    Result<ChaseResult> first = ChaseEngine(config).Run(program, base);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    obs::MetricsRegistry metrics;
    ChaseConfig extend_config = config;
    extend_config.metrics = &metrics;
    Result<ChaseResult> extended =
        ChaseEngine(extend_config)
            .Extend(std::move(first).value(), program, delta);
    ASSERT_TRUE(extended.ok()) << extended.status().ToString();
    // chase.extend.seconds is a histogram, so the counters stay
    // deterministic.
    EXPECT_EQ(Hex(Fnv1a(Dump(extended.value(), /*counters=*/true))),
              Hex(kGoldenExtend))
        << "threads=" << threads;
  }
}

TEST(GoldenProvenanceTest, KillAndResumeMatchesGolden) {
  const Program program = CompanyControlProgram();
  const std::vector<Fact> edb = ControlEdb();
  Result<ChaseResult> reference = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(Hex(Fnv1a(Dump(reference.value(), /*counters=*/false))),
            Hex(kGoldenControlGraph));
  const int64_t rounds = reference.value().stats.rounds;
  ASSERT_GT(rounds, 2);
  for (int threads : {1, 2, 8}) {
    MemFs fs;
    ChaseConfig killed;
    killed.num_threads = threads;
    killed.max_rounds = rounds / 2;  // commits, then trips at the boundary
    killed.checkpoint.fs = &fs;
    killed.checkpoint.dir = "ckpt";
    Result<ChaseResult> first = ChaseEngine(killed).Run(program, edb);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
    ChaseConfig resumed = killed;
    resumed.max_rounds = ChaseConfig().max_rounds;
    resumed.checkpoint.resume = true;
    Result<ChaseResult> second = ChaseEngine(resumed).Run(program, edb);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(Hex(Fnv1a(Dump(second.value(), /*counters=*/false))),
              Hex(kGoldenControlGraph))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace templex
