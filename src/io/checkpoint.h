#ifndef TEMPLEX_IO_CHECKPOINT_H_
#define TEMPLEX_IO_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/status.h"
#include "engine/chase.h"
#include "engine/chase_graph.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace templex {

// Crash-safe persistence for a chase run (DESIGN.md §9). A checkpoint
// directory holds one committed full snapshot plus an append-only journal
// of per-round deltas for the snapshot's generation:
//
//   snapshot.tpx           full resumable state, atomically replaced
//   journal.<gen>.tpx      round deltas appended since that snapshot
//
// Both files share one binary container: an 8-byte magic, then framed
// records `[u32 payload_len][u32 crc32(payload)][payload]` with the record
// type in payload[0]. Every record is individually checksummed, so any
// torn write or bit flip is detected instead of resumed from.
//
// Commit protocol:
//   - WriteSnapshot builds `snapshot.tpx.tmp`, Sync()s it, then Rename()s
//     over `snapshot.tpx` — readers see the old or the new snapshot, never
//     a mix. Committing a snapshot starts a new journal generation and
//     retires prior-generation journals.
//   - AppendDelta appends one framed delta record to the open journal and
//     Sync()s before reporting OK, so an OK delta survives a power cut.
//
// Failure semantics on Load:
//   - corrupt snapshot (bad magic / CRC / truncated before the footer) is
//     kDataLoss: the rename committed it, so damage means real corruption
//     and resuming silently from scratch would hide it;
//   - a corrupt or truncated journal *tail* is the expected shape of a
//     crash mid-append: replay stops at the last intact record (counted in
//     checkpoint.corrupt_records) and the run resumes from there;
//   - a config-hash mismatch is kFailedPrecondition: the checkpoint is
//     intact but belongs to a different program/EDB/config.

// Position of a run at a committed round boundary, sufficient to restart
// the stratified semi-naive loop exactly where it stopped.
struct CheckpointCursor {
  // Index into the program's strata (RuleStrata order).
  int32_t stratum_index = 0;
  // Delta window start to resume the stratum with: the graph size at the
  // committed boundary, or -1 when the stratum has not run its first full
  // evaluation pass yet (empty-body rules only fire in that pass, so the
  // distinction must survive the round trip).
  FactId resume_delta = -1;
  ChaseStats stats;
  // Next fresh labelled-null id (ChaseRun::next_null_id_).
  int64_t next_null_id = 1;
};

// One recorded aggregate contribution: the monotone update stream of
// AggregateState, replayed with overwrite semantics.
struct AggregateEntryRecord {
  int32_t rule_index = -1;
  std::vector<Value> group_key;
  std::vector<Value> contributor_key;
  Value value;
  std::vector<FactId> parents;
};

// An alternative derivation attached to an already-existing fact.
struct AlternativeRecord {
  FactId fact = kInvalidFactId;
  Derivation derivation;
};

// Everything one round (or a batch of rounds) added on top of the previous
// commit. Replay order is: intern new_symbols, append nodes (written
// without alternatives), attach alternatives, apply aggregate updates.
struct CheckpointDelta {
  CheckpointCursor cursor;
  std::vector<std::string> new_symbols;
  std::vector<ChaseNode> nodes;
  std::vector<AlternativeRecord> alternatives;
  std::vector<AggregateEntryRecord> aggregates;
};

// Full resumable chase state. Rule labels are not stored — the config hash
// pins the program, so the engine re-derives them from rule_index.
struct ChaseCheckpoint {
  uint64_t config_hash = 0;
  std::vector<std::string> symbols;  // SymbolTable in id order
  std::vector<ChaseNode> nodes;      // chase graph in id order
  std::vector<AggregateEntryRecord> aggregates;
  CheckpointCursor cursor;
};

// Owns one checkpoint directory. Not thread-safe: the chase commits from
// its driving thread only. All I/O goes through the injected Fs, so chaos
// tests swap in MemFs/FaultInjectingFs.
//
// Metrics (when a registry is attached): checkpoint.writes,
// checkpoint.bytes, checkpoint.corrupt_records counters and the
// checkpoint.write.seconds histogram (docs/OBSERVABILITY.md).
//
// Events (when a flight recorder is attached): snapshot/delta commits at
// info level, corrupt journal tails at warn, and kDataLoss loads at error
// — so a post-mortem crash report shows the durability layer's last acts
// next to the chase's.
class CheckpointStore {
 public:
  CheckpointStore(Fs* fs, std::string dir,
                  obs::MetricsRegistry* metrics = nullptr,
                  obs::EventLog* event_log = nullptr);
  ~CheckpointStore();

  // Creates the directory and sweeps `*.tmp` leftovers of interrupted
  // snapshot commits. Must be called (and succeed) before anything else.
  Status Open();

  // True when a committed snapshot exists to resume from.
  bool CanResume() const;

  // Atomically commits `snapshot` as the next generation and opens its
  // journal. On any error the previous generation remains the committed
  // state.
  Status WriteSnapshot(const ChaseCheckpoint& snapshot);

  // Durably appends one delta to the current generation's journal.
  // Requires a preceding successful WriteSnapshot in this process.
  Status AppendDelta(const CheckpointDelta& delta);

  // Reads the committed snapshot, replays its journal up to the last
  // intact record, and returns the merged state. kNotFound when no
  // snapshot exists; kDataLoss / kFailedPrecondition per the file comment.
  Result<ChaseCheckpoint> Load(uint64_t expected_config_hash);

  uint64_t generation() const { return generation_; }

 private:
  Status StartJournal(uint64_t config_hash);
  void RetireOtherJournals();
  Result<ChaseCheckpoint> LoadImpl(uint64_t expected_config_hash);
  void LogEvent(obs::EventLevel level, std::string_view name,
                std::vector<std::pair<std::string, std::string>> fields);

  Fs* fs_;
  std::string dir_;
  obs::EventLog* event_log_ = nullptr;      // may be null
  obs::Counter* writes_ = nullptr;          // may stay null (no registry)
  obs::Counter* bytes_ = nullptr;
  obs::Counter* corrupt_records_ = nullptr;
  obs::Histogram* write_seconds_ = nullptr;
  bool opened_ = false;
  uint64_t generation_ = 0;
  std::unique_ptr<WritableFile> journal_;  // open current-generation journal
};

// The serialized format version; bumped on any incompatible layout change
// and folded into the engine's checkpoint config hash.
// v2: trigger-graph records (segment nodes + rule executions) joined the
// snapshot and delta payloads.
// v3: rule-execution records dropped their per-atom join-choice counts.
// v4: the trigger-graph records are gone; the cursor's ChaseStats carries
// the skipped/executed rule totals instead.
// v5: same layout, but the chase no longer records an aggregate rule's
// re-emission as an alternative, so a v4 snapshot's alternatives are not
// the ones a resumed run would keep.
inline constexpr uint32_t kCheckpointFormatVersion = 5;

}  // namespace templex

#endif  // TEMPLEX_IO_CHECKPOINT_H_
