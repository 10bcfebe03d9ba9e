// Resume correctness: a chase killed at any committed round boundary and
// resumed from its checkpoint must be indistinguishable from the
// uninterrupted run — same chase graph (ids, provenance, alternatives,
// contributions), same stats, same DOT and explanations — at 1, 2, and 8
// threads, including resuming at a different thread count than the kill
// and Extend()ing the resumed result. max_rounds is the deterministic
// kill switch: the round commits, then ResourceExhausted fires at the
// next boundary, so every kill point is a committed boundary.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/generators.h"
#include "apps/glossaries.h"
#include "apps/programs.h"
#include "common/fs.h"
#include "engine/chase.h"
#include "explain/explainer.h"
#include "obs/metrics.h"

namespace templex {
namespace {

// Same derivation-relevant serialization as parallel_chase_test: equal
// signatures mean interchangeable graphs for proofs, JSON, and DOT.
std::vector<std::string> GraphSignature(const ChaseResult& chase) {
  std::vector<std::string> signature;
  signature.reserve(chase.graph.size());
  auto describe = [](std::ostringstream& out, const Derivation& d) {
    out << "|rule=" << d.rule_index << "/" << d.rule_label
        << "|theta=" << d.binding.ToString() << "|parents=";
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
    std::ostringstream out;
    out << node.fact.ToString();
    describe(out, node.derivation);
    for (const Derivation& alt : node.alternatives) {
      out << "|alt:";
      describe(out, alt);
    }
    signature.push_back(out.str());
  }
  return signature;
}

void ExpectSameResult(const ChaseResult& got, const ChaseResult& want,
                      const std::string& context) {
  EXPECT_EQ(GraphSignature(got), GraphSignature(want)) << context;
  EXPECT_EQ(got.graph.ToDot(), want.graph.ToDot()) << context;
  EXPECT_EQ(got.stats.initial_facts, want.stats.initial_facts) << context;
  EXPECT_EQ(got.stats.derived_facts, want.stats.derived_facts) << context;
  EXPECT_EQ(got.stats.rounds, want.stats.rounds) << context;
  EXPECT_EQ(got.stats.matches, want.stats.matches) << context;
}

struct CheckpointedRun {
  Fs* fs;
  std::string dir;
  int threads = 1;
  int64_t max_rounds = ChaseConfig().max_rounds;
  bool resume = false;
  int64_t snapshot_every_rounds = 16;
  obs::MetricsRegistry* metrics = nullptr;
};

Result<ChaseResult> RunCheckpointed(const Program& program,
                                    const std::vector<Fact>& edb,
                        const CheckpointedRun& options) {
  ChaseConfig config;
  config.num_threads = options.threads;
  config.max_rounds = options.max_rounds;
  config.metrics = options.metrics;
  config.checkpoint.fs = options.fs;
  config.checkpoint.dir = options.dir;
  config.checkpoint.resume = options.resume;
  config.checkpoint.snapshot_every_rounds = options.snapshot_every_rounds;
  return ChaseEngine(config).Run(program, edb);
}

std::vector<Fact> ControlNetwork(uint64_t seed = 11) {
  OwnershipNetworkOptions options;
  options.company_facts = true;
  Rng rng(seed);
  return GenerateOwnershipNetwork(options, &rng);
}

TEST(ChaseResumeTest, EveryKillPointResumesIdentically) {
  const Program program = CompanyControlProgram();
  const std::vector<Fact> edb = ControlNetwork();
  auto reference = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const int64_t rounds = reference.value().stats.rounds;
  ASSERT_GT(rounds, 2) << "instance too small to exercise kill points";

  for (int64_t kill = 1; kill < rounds; ++kill) {
    MemFs fs;
    CheckpointedRun killed{&fs, "ckpt"};
    killed.max_rounds = kill;
    Result<ChaseResult> first= RunCheckpointed(program, edb, killed);
    ASSERT_FALSE(first.ok()) << "kill at round " << kill << " did not fire";
    EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);

    CheckpointedRun resumed{&fs, "ckpt"};
    resumed.resume = true;
    Result<ChaseResult> second= RunCheckpointed(program, edb, resumed);
    ASSERT_TRUE(second.ok())
        << "kill " << kill << ": " << second.status().ToString();
    ExpectSameResult(second.value(), reference.value(),
                     "kill at round " + std::to_string(kill));
  }
}

TEST(ChaseResumeTest, SnapshotOnlyAndJournaledCadencesAgree) {
  const Program program = StressTestProgram();
  Rng rng(23);
  SampledInstance instance = SampleStressCascade(6, 2, &rng);
  auto reference = ChaseEngine().Run(program, instance.edb);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const int64_t rounds = reference.value().stats.rounds;
  ASSERT_GT(rounds, 2);
  // snapshot_every_rounds=1 (all snapshots, empty journals) and =1000
  // (one snapshot, all journal deltas) must both resume exactly.
  for (int64_t cadence : {int64_t{1}, int64_t{1000}}) {
    MemFs fs;
    CheckpointedRun killed{&fs, "ckpt"};
    killed.max_rounds = rounds / 2;
    killed.snapshot_every_rounds = cadence;
    ASSERT_FALSE(RunCheckpointed(program, instance.edb, killed).ok());
    CheckpointedRun resumed{&fs, "ckpt"};
    resumed.resume = true;
    resumed.snapshot_every_rounds = cadence;
    Result<ChaseResult> second = RunCheckpointed(program, instance.edb, resumed);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    ExpectSameResult(second.value(), reference.value(),
                     "cadence " + std::to_string(cadence));
  }
}

TEST(ChaseResumeTest, ResumeAtDifferentThreadCountsIsByteIdentical) {
  const Program program = CompanyControlProgram();
  const std::vector<Fact> edb = ControlNetwork(5);
  auto reference = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(reference.ok());
  const int64_t kill = reference.value().stats.rounds / 2;
  ASSERT_GT(kill, 0);

  for (int kill_threads : {1, 2, 8}) {
    for (int resume_threads : {1, 2, 8}) {
      MemFs fs;
      CheckpointedRun killed{&fs, "ckpt"};
      killed.threads = kill_threads;
      killed.max_rounds = kill;
      ASSERT_FALSE(RunCheckpointed(program, edb, killed).ok());
      CheckpointedRun resumed{&fs, "ckpt"};
      resumed.threads = resume_threads;
      resumed.resume = true;
      Result<ChaseResult> second= RunCheckpointed(program, edb, resumed);
      ASSERT_TRUE(second.ok()) << second.status().ToString();
      ExpectSameResult(second.value(), reference.value(),
                       "killed at " + std::to_string(kill_threads) +
                           " threads, resumed at " +
                           std::to_string(resume_threads));
    }
  }
}

TEST(ChaseResumeTest, ExplanationsIdenticalAfterResume) {
  auto explainer =
      Explainer::Create(StressTestProgram(), StressTestGlossary());
  ASSERT_TRUE(explainer.ok()) << explainer.status().ToString();
  const Program& program = explainer.value()->program();
  Rng rng(13);
  SampledInstance instance = SampleStressCascade(6, 2, &rng);
  auto reference = ChaseEngine().Run(program, instance.edb);
  ASSERT_TRUE(reference.ok());

  MemFs fs;
  CheckpointedRun killed{&fs, "ckpt"};
  killed.max_rounds = reference.value().stats.rounds / 2;
  ASSERT_GT(killed.max_rounds, 0);
  ASSERT_FALSE(RunCheckpointed(program, instance.edb, killed).ok());
  CheckpointedRun resumed{&fs, "ckpt", /*threads=*/2};
  resumed.resume = true;
  Result<ChaseResult> second = RunCheckpointed(program, instance.edb, resumed);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  int explained = 0;
  for (const Fact& fact : reference.value().FactsOf("Default")) {
    Result<std::string> a = explainer.value()->Explain(reference.value(), fact);
    Result<std::string> b = explainer.value()->Explain(second.value(), fact);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a.value(), b.value()) << "explanation diverged after resume";
    if (++explained == 5) break;
  }
  EXPECT_GT(explained, 0) << "no derived Default facts to explain";
}

TEST(ChaseResumeTest, ExtendAfterResumeMatchesUninterruptedExtend) {
  const Program program = CompanyControlProgram();
  std::vector<Fact> edb = ControlNetwork(7);
  const size_t cut = edb.size() - edb.size() / 4;
  const std::vector<Fact> base_edb(edb.begin(), edb.begin() + cut);
  const std::vector<Fact> extra(edb.begin() + cut, edb.end());

  ChaseEngine plain;
  auto reference_base = plain.Run(program, base_edb);
  ASSERT_TRUE(reference_base.ok());
  const int64_t kill = reference_base.value().stats.rounds / 2;
  ASSERT_GT(kill, 0);
  auto reference =
      plain.Extend(std::move(reference_base).value(), program, extra);
  ASSERT_TRUE(reference.ok());

  for (int threads : {1, 2, 8}) {
    MemFs fs;
    CheckpointedRun killed{&fs, "ckpt"};
    killed.threads = threads;
    killed.max_rounds = kill;
    ASSERT_FALSE(RunCheckpointed(program, base_edb, killed).ok());
    CheckpointedRun resumed{&fs, "ckpt"};
    resumed.threads = threads;
    resumed.resume = true;
    Result<ChaseResult> base = RunCheckpointed(program, base_edb, resumed);
    ASSERT_TRUE(base.ok()) << base.status().ToString();

    ChaseConfig config;
    config.num_threads = threads;
    auto extended =
        ChaseEngine(config).Extend(std::move(base).value(), program, extra);
    ASSERT_TRUE(extended.ok()) << extended.status().ToString();
    ExpectSameResult(extended.value(), reference.value(),
                     "extend after resume at " + std::to_string(threads) +
                         " threads");
  }
}

TEST(ChaseResumeTest, ResumeAfterCompletionReproducesTheResult) {
  const Program program = CompanyControlProgram();
  const std::vector<Fact> edb = ControlNetwork(3);
  MemFs fs;
  CheckpointedRun first_run{&fs, "ckpt"};
  Result<ChaseResult> first= RunCheckpointed(program, edb, first_run);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  obs::MetricsRegistry registry;
  CheckpointedRun again{&fs, "ckpt"};
  again.resume = true;
  again.metrics = &registry;
  Result<ChaseResult> second= RunCheckpointed(program, edb, again);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ExpectSameResult(second.value(), first.value(), "resume at fixpoint");

  // The whole run was skipped: every committed round was restored.
  int64_t skipped = 0;
  for (const obs::CounterSnapshot& c : registry.Snapshot().counters) {
    if (c.name == "checkpoint.resume.rounds_skipped") skipped = c.value;
  }
  EXPECT_EQ(skipped, first.value().stats.rounds);
}

TEST(ChaseResumeTest, ForeignProgramCheckpointIsRefused) {
  const std::vector<Fact> edb = ControlNetwork(9);
  MemFs fs;
  CheckpointedRun seed_run{&fs, "ckpt"};
  ASSERT_TRUE(RunCheckpointed(CompanyControlProgram(), edb, seed_run).ok());

  CheckpointedRun resumed{&fs, "ckpt"};
  resumed.resume = true;
  Result<ChaseResult> other = RunCheckpointed(GoldenPowerProgram(), edb, resumed);
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ChaseResumeTest, ForeignEdbCheckpointIsRefused) {
  const Program program = CompanyControlProgram();
  MemFs fs;
  CheckpointedRun seed_run{&fs, "ckpt"};
  ASSERT_TRUE(RunCheckpointed(program, ControlNetwork(9), seed_run).ok());

  CheckpointedRun resumed{&fs, "ckpt"};
  resumed.resume = true;
  Result<ChaseResult> other = RunCheckpointed(program, ControlNetwork(10), resumed);
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ChaseResumeTest, ResumeWithEmptyDirectoryStartsFresh) {
  const Program program = CompanyControlProgram();
  const std::vector<Fact> edb = ControlNetwork(4);
  auto reference = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(reference.ok());
  MemFs fs;
  CheckpointedRun resumed{&fs, "ckpt"};
  resumed.resume = true;  // nothing there yet: must run from scratch
  Result<ChaseResult> result= RunCheckpointed(program, edb, resumed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameResult(result.value(), reference.value(), "fresh --resume");
}

}  // namespace
}  // namespace templex
