// CheckpointStore unit tests: round-tripping the full resumable state,
// and — the actual point of the format — refusing to trust damaged bytes.
// Snapshot corruption must be kDataLoss (the rename committed it), journal
// tail corruption must be treated as the crash cut, and a foreign config
// hash or format version must be kFailedPrecondition.

#include "io/checkpoint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fs.h"
#include "common/hash.h"
#include "obs/metrics.h"

namespace templex {
namespace {

constexpr uint64_t kHash = 0x1234abcd5678ef00ull;

ChaseNode MakeNode(int pred_symbol, const char* predicate,
                   std::vector<Value> args, int rule_index,
                   std::vector<FactId> parents) {
  ChaseNode node;
  node.fact.pred_symbol = pred_symbol;
  node.fact.predicate = predicate;
  node.fact.args = std::move(args);
  node.derivation.rule_index = rule_index;
  node.derivation.parents = std::move(parents);
  if (rule_index >= 0) {
    node.derivation.values = {Value::String("acme"), Value::Double(0.75)};
  }
  return node;
}

// A snapshot exercising every serialized shape: all Value kinds, bindings,
// parents, contributions, alternatives, aggregates, and a non-trivial
// cursor.
ChaseCheckpoint MakeCheckpoint() {
  ChaseCheckpoint ckpt;
  ckpt.config_hash = kHash;
  ckpt.symbols = {"Own", "Control", "Exposure"};
  ckpt.nodes.push_back(MakeNode(0, "Own",
                                {Value::String("acme"), Value::String("bee"),
                                 Value::Double(0.6)},
                                -1, {}));
  ckpt.nodes.push_back(MakeNode(
      0, "Own", {Value::Int(7), Value::Bool(true), Value::Null()}, -1, {}));
  ChaseNode derived = MakeNode(
      1, "Control", {Value::String("acme"), Value::LabeledNull(3)}, 2,
      {0, 1});
  AggregateContribution contribution;
  contribution.input = Value::Double(0.6);
  contribution.parents = {0};
  derived.derivation.contributions.push_back(contribution);
  Derivation alt;
  alt.rule_index = 4;
  alt.values = {Value::Int(-12)};
  alt.parents = {1};
  contribution.input = Value::Int(-3);
  contribution.parents = {1, 0};
  alt.contributions.push_back(contribution);
  derived.alternatives.push_back(alt);
  ckpt.nodes.push_back(derived);

  AggregateEntryRecord entry;
  entry.rule_index = 2;
  entry.group_key = {Value::String("acme")};
  entry.contributor_key = {Value::String("bee")};
  entry.value = Value::Double(0.6);
  entry.parents = {0, 1};
  ckpt.aggregates.push_back(entry);

  ckpt.cursor.stratum_index = 1;
  ckpt.cursor.resume_delta = 2;
  ckpt.cursor.stats = {2, 1, 3, 17, 5, 9};
  ckpt.cursor.next_null_id = 4;
  return ckpt;
}

// Everything a checkpoint stores of a derivation (the rule label and the
// variable names are re-derived from the program at restore).
void ExpectDerivationEq(const Derivation& got, const Derivation& want) {
  EXPECT_EQ(got.rule_index, want.rule_index);
  EXPECT_EQ(got.values, want.values);
  EXPECT_EQ(got.parents, want.parents);
  ASSERT_EQ(got.contributions.size(), want.contributions.size());
  for (size_t c = 0; c < want.contributions.size(); ++c) {
    EXPECT_EQ(got.contributions[c].input, want.contributions[c].input);
    EXPECT_EQ(got.contributions[c].parents, want.contributions[c].parents);
  }
}

void ExpectCheckpointEq(const ChaseCheckpoint& got,
                        const ChaseCheckpoint& want) {
  EXPECT_EQ(got.config_hash, want.config_hash);
  EXPECT_EQ(got.symbols, want.symbols);
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (size_t i = 0; i < want.nodes.size(); ++i) {
    const ChaseNode& g = got.nodes[i];
    const ChaseNode& w = want.nodes[i];
    EXPECT_EQ(g.fact.predicate, w.fact.predicate) << "node " << i;
    EXPECT_EQ(g.fact.args, w.fact.args) << "node " << i;
    ExpectDerivationEq(g.derivation, w.derivation);
    ASSERT_EQ(g.alternatives.size(), w.alternatives.size());
    for (size_t a = 0; a < w.alternatives.size(); ++a) {
      ExpectDerivationEq(g.alternatives[a], w.alternatives[a]);
    }
  }
  ASSERT_EQ(got.aggregates.size(), want.aggregates.size());
  for (size_t i = 0; i < want.aggregates.size(); ++i) {
    EXPECT_EQ(got.aggregates[i].rule_index, want.aggregates[i].rule_index);
    EXPECT_EQ(got.aggregates[i].group_key, want.aggregates[i].group_key);
    EXPECT_EQ(got.aggregates[i].contributor_key,
              want.aggregates[i].contributor_key);
    EXPECT_EQ(got.aggregates[i].value, want.aggregates[i].value);
    EXPECT_EQ(got.aggregates[i].parents, want.aggregates[i].parents);
  }
  EXPECT_EQ(got.cursor.stratum_index, want.cursor.stratum_index);
  EXPECT_EQ(got.cursor.resume_delta, want.cursor.resume_delta);
  EXPECT_EQ(got.cursor.stats.initial_facts, want.cursor.stats.initial_facts);
  EXPECT_EQ(got.cursor.stats.derived_facts, want.cursor.stats.derived_facts);
  EXPECT_EQ(got.cursor.stats.rounds, want.cursor.stats.rounds);
  EXPECT_EQ(got.cursor.stats.matches, want.cursor.stats.matches);
  EXPECT_EQ(got.cursor.stats.skipped_rules, want.cursor.stats.skipped_rules);
  EXPECT_EQ(got.cursor.stats.executed_rules,
            want.cursor.stats.executed_rules);
  EXPECT_EQ(got.cursor.next_null_id, want.cursor.next_null_id);
}

TEST(CheckpointStoreTest, LoadWithoutSnapshotIsNotFound) {
  MemFs fs;
  CheckpointStore store(&fs, "ckpt");
  ASSERT_TRUE(store.Open().ok());
  EXPECT_FALSE(store.CanResume());
  EXPECT_EQ(store.Load(kHash).status().code(), StatusCode::kNotFound);
}

TEST(CheckpointStoreTest, SnapshotRoundTrip) {
  MemFs fs;
  CheckpointStore store(&fs, "ckpt");
  ASSERT_TRUE(store.Open().ok());
  const ChaseCheckpoint want = MakeCheckpoint();
  ASSERT_TRUE(store.WriteSnapshot(want).ok());
  EXPECT_TRUE(store.CanResume());
  EXPECT_FALSE(fs.Exists("ckpt/snapshot.tpx.tmp"));

  CheckpointStore reader(&fs, "ckpt");
  ASSERT_TRUE(reader.Open().ok());
  Result<ChaseCheckpoint> got = reader.Load(kHash);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectCheckpointEq(got.value(), want);
}

TEST(CheckpointStoreTest, JournalDeltasReplayOnTopOfSnapshot) {
  MemFs fs;
  CheckpointStore store(&fs, "ckpt");
  ASSERT_TRUE(store.Open().ok());
  const ChaseCheckpoint base = MakeCheckpoint();
  ASSERT_TRUE(store.WriteSnapshot(base).ok());

  CheckpointDelta delta;
  delta.new_symbols = {"Path"};
  delta.nodes.push_back(
      MakeNode(3, "Path", {Value::String("acme"), Value::String("bee")}, 0,
               {0}));
  AlternativeRecord alt;
  alt.fact = 2;
  alt.derivation.rule_index = 5;
  alt.derivation.parents = {0};
  delta.alternatives.push_back(alt);
  AggregateEntryRecord entry;
  entry.rule_index = 2;
  entry.group_key = {Value::String("acme")};
  entry.contributor_key = {Value::String("bee")};
  entry.value = Value::Double(0.9);  // overwrites the snapshot's 0.6
  entry.parents = {0, 1, 3};
  delta.aggregates.push_back(entry);
  delta.cursor = base.cursor;
  delta.cursor.resume_delta = 3;
  delta.cursor.stats.rounds = 4;
  delta.cursor.stats.derived_facts = 2;
  ASSERT_TRUE(store.AppendDelta(delta).ok());

  CheckpointStore reader(&fs, "ckpt");
  ASSERT_TRUE(reader.Open().ok());
  Result<ChaseCheckpoint> got = reader.Load(kHash);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got.value().nodes.size(), 4u);
  EXPECT_EQ(got.value().symbols.size(), 4u);
  EXPECT_EQ(got.value().nodes[3].fact.predicate, "Path");
  ASSERT_EQ(got.value().nodes[2].alternatives.size(), 2u);
  ExpectDerivationEq(got.value().nodes[2].alternatives[1], alt.derivation);
  // The delta's aggregate update replaces the snapshot entry (overwrite
  // replay), so both records surface but the later one wins downstream;
  // here we only pin that both are present in order.
  ASSERT_EQ(got.value().aggregates.size(), 2u);
  EXPECT_EQ(got.value().aggregates[1].value, Value::Double(0.9));
  EXPECT_EQ(got.value().cursor.resume_delta, 3);
  EXPECT_EQ(got.value().cursor.stats.rounds, 4);
}

TEST(CheckpointStoreTest, ConfigHashMismatchIsFailedPrecondition) {
  MemFs fs;
  CheckpointStore store(&fs, "ckpt");
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.WriteSnapshot(MakeCheckpoint()).ok());
  const Status status = store.Load(kHash + 1).status();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.ToString().find("delete the checkpoint directory"),
            std::string::npos);
}

void AppendLittleEndian(std::string* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

// A snapshot file holding only the magic and a header record, built byte
// by byte in the on-disk layout: little-endian fields, each record framed
// as [u32 payload_len][u32 crc32(payload)][payload].
std::string HandBuiltSnapshotHeader(uint32_t version) {
  std::string payload;
  AppendLittleEndian(&payload, 1, 1);  // record type: snapshot header
  AppendLittleEndian(&payload, version, 4);
  AppendLittleEndian(&payload, kHash, 8);
  AppendLittleEndian(&payload, 1, 8);  // generation
  std::string file = "TPXCKPT\n";
  AppendLittleEndian(&file, payload.size(), 4);
  AppendLittleEndian(&file, Crc32(payload.data(), payload.size()), 4);
  return file + payload;
}

Status LoadHandBuilt(uint32_t version) {
  MemFs fs;
  EXPECT_TRUE(fs.CreateDir("ckpt").ok());
  Result<std::unique_ptr<WritableFile>> file =
      fs.NewWritableFile("ckpt/snapshot.tpx");
  EXPECT_TRUE(file.ok());
  EXPECT_TRUE(file.value()->Append(HandBuiltSnapshotHeader(version)).ok());
  EXPECT_TRUE(file.value()->Sync().ok());
  CheckpointStore store(&fs, "ckpt");
  EXPECT_TRUE(store.Open().ok());
  return store.Load(kHash).status();
}

TEST(CheckpointStoreTest, OtherFormatVersionIsRefused) {
  // The hand-built header is well-formed: at the current version it parses
  // and the load only fails later, on the missing symbol/footer records.
  const Status current = LoadHandBuilt(kCheckpointFormatVersion);
  EXPECT_EQ(current.code(), StatusCode::kDataLoss) << current.ToString();
  for (uint32_t version : {2u, 3u, 4u, 5u, kCheckpointFormatVersion + 1}) {
    const Status status = LoadHandBuilt(version);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
        << status.ToString();
    EXPECT_NE(status.ToString().find("format version " +
                                     std::to_string(version) +
                                     " is not supported"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(CheckpointStoreTest, CorruptSnapshotIsDataLoss) {
  MemFs fs;
  {
    CheckpointStore store(&fs, "ckpt");
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.WriteSnapshot(MakeCheckpoint()).ok());
  }
  std::string data = fs.ReadFile("ckpt/snapshot.tpx").value();
  // Flip one byte in the middle of the payload area; some record's CRC
  // must now fail and Load must refuse the whole snapshot.
  data[data.size() / 2] ^= 0x40;
  {
    Result<std::unique_ptr<WritableFile>> file =
        fs.NewWritableFile("ckpt/snapshot.tpx");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(data).ok());
    ASSERT_TRUE(file.value()->Sync().ok());
  }
  CheckpointStore reader(&fs, "ckpt");
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.Load(kHash).status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointStoreTest, TruncatedSnapshotIsDataLoss) {
  MemFs fs;
  {
    CheckpointStore store(&fs, "ckpt");
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.WriteSnapshot(MakeCheckpoint()).ok());
  }
  const std::string data = fs.ReadFile("ckpt/snapshot.tpx").value();
  {
    Result<std::unique_ptr<WritableFile>> file =
        fs.NewWritableFile("ckpt/snapshot.tpx");
    ASSERT_TRUE(file.ok());
    // Cut before the footer record.
    ASSERT_TRUE(file.value()->Append(
        std::string_view(data).substr(0, data.size() - 9)).ok());
    ASSERT_TRUE(file.value()->Sync().ok());
  }
  CheckpointStore reader(&fs, "ckpt");
  ASSERT_TRUE(reader.Open().ok());
  EXPECT_EQ(reader.Load(kHash).status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointStoreTest, TornJournalTailIsTheCrashCut) {
  MemFs fs;
  obs::MetricsRegistry registry;
  CheckpointStore store(&fs, "ckpt", &registry);
  ASSERT_TRUE(store.Open().ok());
  const ChaseCheckpoint base = MakeCheckpoint();
  ASSERT_TRUE(store.WriteSnapshot(base).ok());
  CheckpointDelta delta;
  delta.cursor = base.cursor;
  delta.cursor.stats.rounds = 4;
  ASSERT_TRUE(store.AppendDelta(delta).ok());
  const std::string journal_path =
      "ckpt/journal." + std::to_string(store.generation()) + ".tpx";
  std::string journal = fs.ReadFile(journal_path).value();
  // A second delta that only half-hits the disk: append the intact frame,
  // then the torn prefix of another.
  delta.cursor.stats.rounds = 5;
  ASSERT_TRUE(store.AppendDelta(delta).ok());
  std::string torn = fs.ReadFile(journal_path).value();
  torn.resize(journal.size() + (torn.size() - journal.size()) / 2);
  {
    Result<std::unique_ptr<WritableFile>> file =
        fs.NewWritableFile(journal_path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(torn).ok());
    ASSERT_TRUE(file.value()->Sync().ok());
  }
  CheckpointStore reader(&fs, "ckpt", &registry);
  ASSERT_TRUE(reader.Open().ok());
  Result<ChaseCheckpoint> got = reader.Load(kHash);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Replay stopped at the last intact record: rounds=4, not 5.
  EXPECT_EQ(got.value().cursor.stats.rounds, 4);
  bool counted = false;
  for (const obs::CounterSnapshot& c : registry.Snapshot().counters) {
    if (c.name == "checkpoint.corrupt_records" && c.value > 0) counted = true;
  }
  EXPECT_TRUE(counted);
}

TEST(CheckpointStoreTest, NewSnapshotRetiresOldJournal) {
  MemFs fs;
  CheckpointStore store(&fs, "ckpt");
  ASSERT_TRUE(store.Open().ok());
  const ChaseCheckpoint base = MakeCheckpoint();
  ASSERT_TRUE(store.WriteSnapshot(base).ok());
  const uint64_t gen1 = store.generation();
  CheckpointDelta delta;
  delta.cursor = base.cursor;
  ASSERT_TRUE(store.AppendDelta(delta).ok());
  ASSERT_TRUE(store.WriteSnapshot(base).ok());
  EXPECT_GT(store.generation(), gen1);
  EXPECT_FALSE(
      fs.Exists("ckpt/journal." + std::to_string(gen1) + ".tpx"));
}

TEST(CheckpointStoreTest, OpenSweepsTmpLeftovers) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("ckpt").ok());
  {
    Result<std::unique_ptr<WritableFile>> tmp =
        fs.NewWritableFile("ckpt/snapshot.tpx.tmp");
    ASSERT_TRUE(tmp.ok());
    ASSERT_TRUE(tmp.value()->Append("interrupted commit").ok());
    ASSERT_TRUE(tmp.value()->Sync().ok());
  }
  CheckpointStore store(&fs, "ckpt");
  ASSERT_TRUE(store.Open().ok());
  EXPECT_FALSE(fs.Exists("ckpt/snapshot.tpx.tmp"));
}

TEST(CheckpointStoreTest, MetricsCountWritesAndBytes) {
  MemFs fs;
  obs::MetricsRegistry registry;
  CheckpointStore store(&fs, "ckpt", &registry);
  ASSERT_TRUE(store.Open().ok());
  const ChaseCheckpoint base = MakeCheckpoint();
  ASSERT_TRUE(store.WriteSnapshot(base).ok());
  CheckpointDelta delta;
  delta.cursor = base.cursor;
  ASSERT_TRUE(store.AppendDelta(delta).ok());
  int64_t writes = 0, bytes = 0;
  bool histogram_seen = false;
  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (const obs::CounterSnapshot& c : snapshot.counters) {
    if (c.name == "checkpoint.writes") writes = c.value;
    if (c.name == "checkpoint.bytes") bytes = c.value;
  }
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == "checkpoint.write.seconds" && h.count > 0) {
      histogram_seen = true;
    }
  }
  EXPECT_EQ(writes, 2);
  EXPECT_GT(bytes, 0);
  EXPECT_TRUE(histogram_seen);
}

}  // namespace
}  // namespace templex
