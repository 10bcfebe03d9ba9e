// Storage chaos for the checkpoint commit protocol: every injected crash
// point must leave a directory that either resumes byte-identical to the
// uninterrupted run or fails with a clean, diagnosable Status — never a
// silently wrong graph, never a hang, never a stray .tmp file once a
// store has been reopened. The crash model is FaultInjectingFs (seeded
// faults, crash-after-N-ops sweep) over MemFs with LoseUnsyncedData() as
// the power cut, mirroring llm/fault_injecting_llm's chaos style.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/generators.h"
#include "apps/programs.h"
#include "common/fs.h"
#include "engine/chase.h"

namespace templex {
namespace {

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

Result<ChaseResult> RunThrough(Fs* fs, const Program& program,
                               const std::vector<Fact>& edb, int threads,
                               bool resume) {
  ChaseConfig config;
  config.num_threads = threads;
  config.checkpoint.fs = fs;
  config.checkpoint.dir = "ckpt";
  config.checkpoint.resume = resume;
  // Small cadence so snapshot commits (the rename-based protocol) land
  // inside the sweep, not only at round 0.
  config.checkpoint.snapshot_every_rounds = 3;
  return ChaseEngine(config).Run(program, edb);
}

void ExpectNoTmpFiles(MemFs* fs) {
  Result<std::vector<std::string>> names = fs->ListDir("ckpt");
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  for (const std::string& name : names.value()) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos)
        << "stray temp file survived recovery: " << name;
  }
}

// One crash experiment: run through a fault-injecting fs, power-cut the
// backing store, then resume on the clean store and demand the reference
// result. Returns false when the first run succeeded outright (crash point
// past the protocol's op count).
bool CrashAndRecover(const Program& program, const std::vector<Fact>& edb,
                     const std::vector<std::string>& reference, int threads,
                     int64_t crash_after_ops) {
  SCOPED_TRACE("crash_after_ops=" + std::to_string(crash_after_ops) +
               " threads=" + std::to_string(threads));
  MemFs mem;
  FsFaultOptions options;
  options.crash_after_ops = crash_after_ops;
  FaultInjectingFs faulty(&mem, options);
  Result<ChaseResult> first =
      RunThrough(&faulty, program, edb, threads, /*resume=*/false);
  if (first.ok()) {
    // A crash on a best-effort cleanup op (retiring an old journal) does
    // not fail the run; the result must still be right either way.
    EXPECT_EQ(GraphSignature(first.value()), reference);
    if (!faulty.crashed()) return false;
  } else {
    // The injected failure must surface as a diagnosable storage status,
    // not get swallowed or reclassified.
    EXPECT_EQ(first.status().code(), StatusCode::kUnavailable)
        << first.status().ToString();
  }

  mem.LoseUnsyncedData();  // the power actually goes out

  Result<ChaseResult> second =
      RunThrough(&mem, program, edb, threads, /*resume=*/true);
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  if (second.ok()) {
    EXPECT_EQ(GraphSignature(second.value()), reference)
        << "resume after crash diverged from the uninterrupted run";
  }
  ExpectNoTmpFiles(&mem);
  return true;
}

TEST(CheckpointChaosTest, EveryCrashPointRecoversSequential) {
  const Program program = CompanyControlProgram();
  OwnershipNetworkOptions net;
  net.company_facts = true;
  Rng rng(11);
  const std::vector<Fact> edb = GenerateOwnershipNetwork(net, &rng);
  auto plain = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const std::vector<std::string> reference = GraphSignature(plain.value());

  // Count the protocol's mutating ops with a fault-free decorated run.
  int64_t total_ops = 0;
  {
    MemFs mem;
    FaultInjectingFs counting(&mem);
    ASSERT_TRUE(RunThrough(&counting, program, edb, 1, false).ok());
    total_ops = counting.mutating_ops();
  }
  ASSERT_GT(total_ops, 10) << "protocol too small for a meaningful sweep";

  int crashes = 0;
  for (int64_t k = 0; k < total_ops; ++k) {
    if (CrashAndRecover(program, edb, reference, /*threads=*/1, k)) {
      ++crashes;
    }
  }
  // Every k below the op count injects a crash; almost all of them fail
  // the run (a handful land on best-effort cleanup ops, which succeed but
  // still power-cut + resume above).
  EXPECT_GE(crashes, total_ops - 4);
  EXPECT_GT(crashes, 0);
}

TEST(CheckpointChaosTest, CrashPointsRecoverAcrossThreadCounts) {
  const Program program = StressTestProgram();
  Rng rng(23);
  SampledInstance instance = SampleStressCascade(5, 2, &rng);
  auto plain = ChaseEngine().Run(program, instance.edb);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const std::vector<std::string> reference = GraphSignature(plain.value());

  int64_t total_ops = 0;
  {
    MemFs mem;
    FaultInjectingFs counting(&mem);
    ASSERT_TRUE(RunThrough(&counting, program, instance.edb, 1, false).ok());
    total_ops = counting.mutating_ops();
  }
  // Coarser stride than the sequential sweep: the protocol is identical at
  // every thread count (commits run on the driving thread), this pins it.
  for (int threads : {2, 8}) {
    for (int64_t k = 0; k < total_ops; k += 3) {
      CrashAndRecover(program, instance.edb, reference, threads, k);
    }
  }
}

TEST(CheckpointChaosTest, RandomFaultSoupNeverYieldsAWrongGraph) {
  const Program program = CompanyControlProgram();
  OwnershipNetworkOptions net;
  net.company_facts = true;
  Rng rng(31);
  const std::vector<Fact> edb = GenerateOwnershipNetwork(net, &rng);
  auto plain = ChaseEngine().Run(program, edb);
  ASSERT_TRUE(plain.ok());
  const std::vector<std::string> reference = GraphSignature(plain.value());

  int failures = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    MemFs mem;
    FsFaultOptions options;
    options.seed = seed;
    options.error_rate = 0.08;
    options.short_write_rate = 0.08;
    FaultInjectingFs faulty(&mem, options);
    Result<ChaseResult> first =
        RunThrough(&faulty, program, edb, /*threads=*/1, /*resume=*/false);
    if (first.ok()) {
      EXPECT_EQ(GraphSignature(first.value()), reference);
      continue;
    }
    ++failures;
    EXPECT_EQ(first.status().code(), StatusCode::kUnavailable)
        << first.status().ToString();
    mem.LoseUnsyncedData();
    Result<ChaseResult> second =
        RunThrough(&mem, program, edb, /*threads=*/1, /*resume=*/true);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    EXPECT_EQ(GraphSignature(second.value()), reference);
    ExpectNoTmpFiles(&mem);
  }
  EXPECT_GT(failures, 0) << "fault soup never fired; rates too low";
}

TEST(CheckpointChaosTest, TornRenameIsDetectedAsDataLossNotResumed) {
  // A torn rename commits a truncated snapshot — the one corruption the
  // protocol cannot roll back (the directory entry is the commit point).
  // Resume must refuse it loudly with kDataLoss, never resume from
  // garbage, and never fall back to silently recomputing.
  const Program program = CompanyControlProgram();
  OwnershipNetworkOptions net;
  net.company_facts = true;
  Rng rng(17);
  const std::vector<Fact> edb = GenerateOwnershipNetwork(net, &rng);

  int detected = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    MemFs mem;
    FsFaultOptions options;
    options.seed = seed;
    options.torn_rename_rate = 1.0;  // the first snapshot commit tears
    FaultInjectingFs faulty(&mem, options);
    Result<ChaseResult> first =
        RunThrough(&faulty, program, edb, /*threads=*/1, /*resume=*/false);
    ASSERT_FALSE(first.ok());
    mem.LoseUnsyncedData();
    if (!mem.Exists("ckpt/snapshot.tpx")) continue;  // tear before commit
    const std::string snapshot = mem.ReadFile("ckpt/snapshot.tpx").value();
    if (snapshot.empty()) continue;  // torn down to nothing: NotFound path
    Result<ChaseResult> second =
        RunThrough(&mem, program, edb, /*threads=*/1, /*resume=*/true);
    ASSERT_FALSE(second.ok()) << "resumed from a torn snapshot";
    EXPECT_EQ(second.status().code(), StatusCode::kDataLoss)
        << second.status().ToString();
    ++detected;
  }
  EXPECT_GT(detected, 0) << "no seed produced a committed torn snapshot";
}

}  // namespace
}  // namespace templex
