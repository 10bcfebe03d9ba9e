#include "io/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/timer.h"

namespace templex {

namespace {

constexpr char kMagic[8] = {'T', 'P', 'X', 'C', 'K', 'P', 'T', '\n'};
constexpr const char* kSnapshotName = "snapshot.tpx";
constexpr const char* kTmpSuffix = ".tmp";
// Nodes / aggregate entries per framed record: keeps every record (and the
// blast radius of one bad CRC) modest without paying a frame per node.
constexpr size_t kChunk = 256;

enum RecordType : uint8_t {
  kSnapshotHeader = 1,
  kSymbols = 2,
  kNodes = 3,
  kAggregates = 4,
  kSnapshotFooter = 5,
  kJournalHeader = 6,
  kDelta = 7,
  // 8 and 9 were the trigger-graph records of formats v2 and v3.
};

std::string JournalName(uint64_t generation) {
  return "journal." + std::to_string(generation) + ".tpx";
}

bool HasSuffix(const std::string& name, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
}

// ---------------------------------------------------------------------------
// Primitive little-endian serialization

class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }

  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

// Reads the writer's layout back; any underflow or malformed field puts
// the reader into a sticky failed state instead of reading garbage, and
// `offset()` reports the absolute file offset for the diagnostic.
class ByteReader {
 public:
  ByteReader(std::string_view data, size_t file_offset)
      : data_(data), file_offset_(file_offset) {}

  bool ok() const { return ok_; }
  size_t offset() const { return file_offset_ + pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  // True when `count` elements of at least `min_size` bytes each can still
  // fit — the guard that keeps a bogus count from driving a giant reserve.
  bool FitCount(uint64_t count, size_t min_size) {
    if (ok_ && count * min_size <= remaining()) return true;
    ok_ = false;
    return false;
  }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_++]))
           << (8 * i);
    }
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_++]))
           << (8 * i);
    }
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    const uint32_t n = U32();
    if (!Need(n)) return std::string();
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

 private:
  bool Need(size_t n) {
    if (ok_ && n <= remaining()) return true;
    ok_ = false;
    return false;
  }

  std::string_view data_;
  size_t file_offset_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Domain serialization (Value, Derivation, ChaseNode, ...)

void WriteValue(ByteWriter& w, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      w.U8(0);
      break;
    case Value::Kind::kBool:
      w.U8(1);
      w.U8(v.bool_value() ? 1 : 0);
      break;
    case Value::Kind::kInt:
      w.U8(2);
      w.I64(v.int_value());
      break;
    case Value::Kind::kDouble:
      w.U8(3);
      w.F64(v.double_value());
      break;
    case Value::Kind::kString:
      w.U8(4);
      w.Str(v.string_value());
      break;
    case Value::Kind::kLabeledNull:
      w.U8(5);
      w.I64(v.labeled_null_id());
      break;
  }
}

bool ReadValue(ByteReader& r, Value* out) {
  switch (r.U8()) {
    case 0:
      *out = Value::Null();
      break;
    case 1:
      *out = Value::Bool(r.U8() != 0);
      break;
    case 2:
      *out = Value::Int(r.I64());
      break;
    case 3:
      *out = Value::Double(r.F64());
      break;
    case 4:
      *out = Value::String(r.Str());
      break;
    case 5:
      *out = Value::LabeledNull(r.I64());
      break;
    default:
      return false;
  }
  return r.ok();
}

void WriteValues(ByteWriter& w, const std::vector<Value>& values) {
  w.U32(static_cast<uint32_t>(values.size()));
  for (const Value& v : values) WriteValue(w, v);
}

bool ReadValues(ByteReader& r, std::vector<Value>* out) {
  const uint32_t n = r.U32();
  if (!r.FitCount(n, 1)) return false;
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!ReadValue(r, &(*out)[i])) return false;
  }
  return true;
}

void WriteParents(ByteWriter& w, const std::vector<FactId>& parents) {
  w.U32(static_cast<uint32_t>(parents.size()));
  for (FactId id : parents) w.I32(id);
}

bool ReadParents(ByteReader& r, std::vector<FactId>* out) {
  const uint32_t n = r.U32();
  if (!r.FitCount(n, 4)) return false;
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) (*out)[i] = r.I32();
  return r.ok();
}

void WriteContributions(ByteWriter& w,
                        const std::vector<AggregateContribution>& cs) {
  w.U32(static_cast<uint32_t>(cs.size()));
  for (const AggregateContribution& c : cs) {
    WriteValue(w, c.input);
    WriteParents(w, c.parents);
  }
}

bool ReadContributions(ByteReader& r, std::vector<AggregateContribution>* out) {
  const uint32_t n = r.U32();
  if (!r.FitCount(n, 5)) return false;
  out->resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!ReadValue(r, &(*out)[i].input)) return false;
    if (!ReadParents(r, &(*out)[i].parents)) return false;
  }
  return true;
}

// A primary derivation or an alternative: rule index, binding slot values,
// parents, contributions. Rule labels and variable names are re-derived
// from the program at restore (the config hash pins the program text).
void WriteDerivation(ByteWriter& w, const Derivation& d) {
  w.I32(d.rule_index);
  WriteValues(w, d.values);
  WriteParents(w, d.parents);
  WriteContributions(w, d.contributions);
}

bool ReadDerivation(ByteReader& r, Derivation* out) {
  out->rule_index = r.I32();
  return ReadValues(r, &out->values) && ReadParents(r, &out->parents) &&
         ReadContributions(r, &out->contributions);
}

// `with_alternatives` is false for delta nodes: a node born since the last
// commit carries its re-derivations in the delta's alternatives stream, in
// arrival order, so replay rebuilds the exact alternative list.
void WriteNode(ByteWriter& w, const ChaseNode& node, bool with_alternatives) {
  w.U32(static_cast<uint32_t>(node.fact.pred_symbol));
  WriteValues(w, node.fact.args);
  WriteDerivation(w, node.derivation);
  if (!with_alternatives) {
    w.U32(0);
    return;
  }
  w.U32(static_cast<uint32_t>(node.alternatives.size()));
  for (const Derivation& alt : node.alternatives) WriteDerivation(w, alt);
}

bool ReadNode(ByteReader& r, const std::vector<std::string>& symbols,
              ChaseNode* out) {
  const uint32_t pred = r.U32();
  if (!r.ok() || pred >= symbols.size()) return false;
  out->fact.predicate = symbols[pred];
  if (!ReadValues(r, &out->fact.args)) return false;
  if (!ReadDerivation(r, &out->derivation)) return false;
  const uint32_t alts = r.U32();
  if (!r.FitCount(alts, 13)) return false;
  out->alternatives.resize(alts);
  for (Derivation& alt : out->alternatives) {
    if (!ReadDerivation(r, &alt)) return false;
  }
  return true;
}

void WriteCursor(ByteWriter& w, const CheckpointCursor& cursor) {
  w.I32(cursor.stratum_index);
  w.I32(cursor.resume_delta);
  w.I64(cursor.stats.initial_facts);
  w.I64(cursor.stats.derived_facts);
  w.I64(cursor.stats.rounds);
  w.I64(cursor.stats.matches);
  w.I64(cursor.stats.skipped_rules);
  w.I64(cursor.stats.executed_rules);
  w.I64(cursor.next_null_id);
}

bool ReadCursor(ByteReader& r, CheckpointCursor* out) {
  out->stratum_index = r.I32();
  out->resume_delta = r.I32();
  out->stats.initial_facts = r.I64();
  out->stats.derived_facts = r.I64();
  out->stats.rounds = r.I64();
  out->stats.matches = r.I64();
  out->stats.skipped_rules = r.I64();
  out->stats.executed_rules = r.I64();
  out->next_null_id = r.I64();
  return r.ok();
}

void WriteAggregateEntry(ByteWriter& w, const AggregateEntryRecord& e) {
  w.I32(e.rule_index);
  WriteValues(w, e.group_key);
  WriteValues(w, e.contributor_key);
  WriteValue(w, e.value);
  WriteParents(w, e.parents);
}

bool ReadAggregateEntry(ByteReader& r, AggregateEntryRecord* out) {
  out->rule_index = r.I32();
  return ReadValues(r, &out->group_key) &&
         ReadValues(r, &out->contributor_key) && ReadValue(r, &out->value) &&
         ReadParents(r, &out->parents);
}

// ---------------------------------------------------------------------------
// Record framing: [u32 payload_len][u32 crc32(payload)][payload]

void AppendFramed(std::string* out, std::string_view payload) {
  ByteWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(Crc32(payload.data(), payload.size()));
  out->append(frame.str());
  out->append(payload.data(), payload.size());
}

// Walks the framed records of a file after its magic. Distinguishes a
// clean end from a torn or corrupt tail, which is what separates "crash
// cut mid-append" (resume before it) from "nothing wrong".
class RecordScanner {
 public:
  enum class Next { kRecord, kEof, kCorrupt };

  RecordScanner(std::string_view data, size_t pos) : data_(data), pos_(pos) {}

  Next Read(std::string_view* payload, size_t* payload_offset) {
    if (pos_ == data_.size()) return Next::kEof;
    if (data_.size() - pos_ < 8) return Next::kCorrupt;  // torn frame header
    ByteReader header(data_.substr(pos_, 8), pos_);
    const uint32_t len = header.U32();
    const uint32_t crc = header.U32();
    if (data_.size() - pos_ - 8 < len) return Next::kCorrupt;  // torn payload
    std::string_view body = data_.substr(pos_ + 8, len);
    if (Crc32(body.data(), body.size()) != crc) return Next::kCorrupt;
    *payload = body;
    *payload_offset = pos_ + 8;
    pos_ += 8 + len;
    return Next::kRecord;
  }

  size_t pos() const { return pos_; }

 private:
  std::string_view data_;
  size_t pos_;
};

Status MalformedRecord(const char* what, size_t offset) {
  return Status::DataLoss(std::string("checkpoint: malformed ") + what +
                          " record at offset " + std::to_string(offset));
}

// Header/footer payload shapes shared by snapshot and journal.
struct FileHeader {
  uint32_t version = 0;
  uint64_t config_hash = 0;
  uint64_t generation = 0;
};

void WriteFileHeader(ByteWriter& w, uint8_t type, uint64_t config_hash,
                     uint64_t generation) {
  w.U8(type);
  w.U32(kCheckpointFormatVersion);
  w.U64(config_hash);
  w.U64(generation);
}

bool ReadFileHeader(ByteReader& r, FileHeader* out) {
  out->version = r.U32();
  out->config_hash = r.U64();
  out->generation = r.U64();
  return r.ok();
}

// Validates a parsed header against what the caller expects. `kind` names
// the file for diagnostics.
Status CheckFileHeader(const FileHeader& header, uint64_t expected_hash,
                       const char* kind) {
  if (header.version != kCheckpointFormatVersion) {
    return Status::FailedPrecondition(
        std::string("checkpoint ") + kind + ": format version " +
        std::to_string(header.version) + " is not supported (expected " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }
  if (header.config_hash != expected_hash) {
    return Status::FailedPrecondition(
        std::string("checkpoint ") + kind +
        ": config hash mismatch — the checkpoint was written for a "
        "different program, EDB, or chase configuration; refusing to "
        "resume (delete the checkpoint directory to start fresh)");
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// CheckpointStore

CheckpointStore::CheckpointStore(Fs* fs, std::string dir,
                                 obs::MetricsRegistry* metrics,
                                 obs::EventLog* event_log)
    : fs_(fs), dir_(std::move(dir)), event_log_(event_log) {
  if (metrics != nullptr) {
    writes_ = metrics->counter("checkpoint.writes");
    bytes_ = metrics->counter("checkpoint.bytes");
    corrupt_records_ = metrics->counter("checkpoint.corrupt_records");
    write_seconds_ = metrics->histogram("checkpoint.write.seconds");
  }
}

CheckpointStore::~CheckpointStore() = default;

void CheckpointStore::LogEvent(
    obs::EventLevel level, std::string_view name,
    std::vector<std::pair<std::string, std::string>> fields) {
  if (event_log_ == nullptr) return;
  event_log_->Log(level, "checkpoint", name, std::move(fields));
}

Status CheckpointStore::Open() {
  TEMPLEX_RETURN_IF_ERROR(fs_->CreateDir(dir_));
  // Sweep temp files of interrupted snapshot commits; they were never
  // renamed, so they are not part of any committed state.
  Result<std::vector<std::string>> names = fs_->ListDir(dir_);
  if (!names.ok()) return names.status();
  for (const std::string& name : names.value()) {
    if (HasSuffix(name, kTmpSuffix)) {
      TEMPLEX_RETURN_IF_ERROR(fs_->RemoveFile(JoinPath(dir_, name)));
    }
  }
  opened_ = true;
  return Status::OK();
}

bool CheckpointStore::CanResume() const {
  return fs_->Exists(JoinPath(dir_, kSnapshotName));
}

Status CheckpointStore::WriteSnapshot(const ChaseCheckpoint& snapshot) {
  if (!opened_) return Status::Internal("CheckpointStore used before Open()");
  double seconds = 0.0;
  ScopedTimer timer(&seconds);
  const uint64_t generation = generation_ + 1;

  std::string content(kMagic, sizeof(kMagic));
  {
    ByteWriter w;
    WriteFileHeader(w, kSnapshotHeader, snapshot.config_hash, generation);
    AppendFramed(&content, w.str());
  }
  {
    ByteWriter w;
    w.U8(kSymbols);
    w.U32(static_cast<uint32_t>(snapshot.symbols.size()));
    for (const std::string& name : snapshot.symbols) w.Str(name);
    AppendFramed(&content, w.str());
  }
  for (size_t begin = 0; begin < snapshot.nodes.size(); begin += kChunk) {
    const size_t end = std::min(begin + kChunk, snapshot.nodes.size());
    ByteWriter w;
    w.U8(kNodes);
    w.U32(static_cast<uint32_t>(end - begin));
    for (size_t i = begin; i < end; ++i) {
      WriteNode(w, snapshot.nodes[i], /*with_alternatives=*/true);
    }
    AppendFramed(&content, w.str());
  }
  for (size_t begin = 0; begin < snapshot.aggregates.size(); begin += kChunk) {
    const size_t end = std::min(begin + kChunk, snapshot.aggregates.size());
    ByteWriter w;
    w.U8(kAggregates);
    w.U32(static_cast<uint32_t>(end - begin));
    for (size_t i = begin; i < end; ++i) {
      WriteAggregateEntry(w, snapshot.aggregates[i]);
    }
    AppendFramed(&content, w.str());
  }
  {
    ByteWriter w;
    w.U8(kSnapshotFooter);
    WriteCursor(w, snapshot.cursor);
    w.U64(snapshot.nodes.size());
    w.U64(snapshot.aggregates.size());
    AppendFramed(&content, w.str());
  }

  // Commit: temp + sync + rename. On any failure the previous generation
  // stays committed and the temp (if created) is swept by the next Open().
  const std::string path = JoinPath(dir_, kSnapshotName);
  const std::string tmp = path + kTmpSuffix;
  Result<std::unique_ptr<WritableFile>> file = fs_->NewWritableFile(tmp);
  if (!file.ok()) return file.status();
  TEMPLEX_RETURN_IF_ERROR(file.value()->Append(content));
  TEMPLEX_RETURN_IF_ERROR(file.value()->Sync());
  TEMPLEX_RETURN_IF_ERROR(file.value()->Close());
  TEMPLEX_RETURN_IF_ERROR(fs_->Rename(tmp, path));

  generation_ = generation;
  journal_.reset();  // the old generation's journal is retired below
  TEMPLEX_RETURN_IF_ERROR(StartJournal(snapshot.config_hash));
  RetireOtherJournals();

  timer.Stop();
  if (writes_ != nullptr) {
    writes_->Increment();
    bytes_->Increment(static_cast<int64_t>(content.size()));
    write_seconds_->Observe(seconds);
  }
  LogEvent(obs::EventLevel::kInfo, "snapshot.committed",
           {{"generation", std::to_string(generation_)},
            {"bytes", std::to_string(content.size())}});
  return Status::OK();
}

Status CheckpointStore::StartJournal(uint64_t config_hash) {
  std::string content(kMagic, sizeof(kMagic));
  ByteWriter w;
  WriteFileHeader(w, kJournalHeader, config_hash, generation_);
  AppendFramed(&content, w.str());
  Result<std::unique_ptr<WritableFile>> file =
      fs_->NewWritableFile(JoinPath(dir_, JournalName(generation_)));
  if (!file.ok()) return file.status();
  journal_ = std::move(file).value();
  TEMPLEX_RETURN_IF_ERROR(journal_->Append(content));
  TEMPLEX_RETURN_IF_ERROR(journal_->Sync());
  if (bytes_ != nullptr) {
    bytes_->Increment(static_cast<int64_t>(content.size()));
  }
  return Status::OK();
}

void CheckpointStore::RetireOtherJournals() {
  // Best-effort: a stale journal is never read (its name carries the wrong
  // generation), so a failed removal costs disk, not correctness.
  Result<std::vector<std::string>> names = fs_->ListDir(dir_);
  if (!names.ok()) return;
  const std::string current = JournalName(generation_);
  for (const std::string& name : names.value()) {
    if (name.rfind("journal.", 0) == 0 && name != current) {
      fs_->RemoveFile(JoinPath(dir_, name));
    }
  }
}

Status CheckpointStore::AppendDelta(const CheckpointDelta& delta) {
  if (journal_ == nullptr) {
    return Status::Internal("AppendDelta without a committed snapshot");
  }
  double seconds = 0.0;
  ScopedTimer timer(&seconds);
  ByteWriter w;
  w.U8(kDelta);
  WriteCursor(w, delta.cursor);
  w.U32(static_cast<uint32_t>(delta.new_symbols.size()));
  for (const std::string& name : delta.new_symbols) w.Str(name);
  w.U32(static_cast<uint32_t>(delta.nodes.size()));
  for (const ChaseNode& node : delta.nodes) {
    WriteNode(w, node, /*with_alternatives=*/false);
  }
  w.U32(static_cast<uint32_t>(delta.alternatives.size()));
  for (const AlternativeRecord& alt : delta.alternatives) {
    w.I32(alt.fact);
    WriteDerivation(w, alt.derivation);
  }
  w.U32(static_cast<uint32_t>(delta.aggregates.size()));
  for (const AggregateEntryRecord& e : delta.aggregates) {
    WriteAggregateEntry(w, e);
  }
  std::string framed;
  AppendFramed(&framed, w.str());
  TEMPLEX_RETURN_IF_ERROR(journal_->Append(framed));
  TEMPLEX_RETURN_IF_ERROR(journal_->Sync());
  timer.Stop();
  if (writes_ != nullptr) {
    writes_->Increment();
    bytes_->Increment(static_cast<int64_t>(framed.size()));
    write_seconds_->Observe(seconds);
  }
  LogEvent(obs::EventLevel::kInfo, "delta.committed",
           {{"generation", std::to_string(generation_)},
            {"bytes", std::to_string(framed.size())},
            {"round", std::to_string(delta.cursor.stats.rounds)}});
  return Status::OK();
}

Result<ChaseCheckpoint> CheckpointStore::Load(uint64_t expected_config_hash) {
  Result<ChaseCheckpoint> loaded = LoadImpl(expected_config_hash);
  if (loaded.ok()) {
    LogEvent(obs::EventLevel::kInfo, "load.ok",
             {{"generation", std::to_string(generation_)},
              {"facts", std::to_string(loaded.value().nodes.size())}});
  } else if (loaded.status().code() == StatusCode::kDataLoss) {
    // A corrupt committed checkpoint is exactly what the flight recorder
    // exists for — record it before the caller turns it into exit code 6.
    LogEvent(obs::EventLevel::kError, "load.dataloss",
             {{"status", loaded.status().ToString()}});
  }
  return loaded;
}

Result<ChaseCheckpoint> CheckpointStore::LoadImpl(
    uint64_t expected_config_hash) {
  if (!opened_) return Status::Internal("CheckpointStore used before Open()");

  // --- Snapshot: must parse completely, footer included. It was committed
  // by a rename, so any damage is real corruption — kDataLoss, never a
  // silent fresh start.
  Result<std::string> snapshot_content =
      fs_->ReadFile(JoinPath(dir_, kSnapshotName));
  if (!snapshot_content.ok()) return snapshot_content.status();
  const std::string& data = snapshot_content.value();
  if (data.size() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("checkpoint snapshot: bad magic");
  }

  ChaseCheckpoint checkpoint;
  FileHeader header;
  bool saw_header = false;
  bool saw_symbols = false;
  bool saw_footer = false;
  uint64_t footer_nodes = 0;
  uint64_t footer_aggregates = 0;

  RecordScanner scanner(data, sizeof(kMagic));
  while (true) {
    std::string_view payload;
    size_t offset = 0;
    const RecordScanner::Next next = scanner.Read(&payload, &offset);
    if (next == RecordScanner::Next::kEof) break;
    if (next == RecordScanner::Next::kCorrupt) {
      if (corrupt_records_ != nullptr) corrupt_records_->Increment();
      return Status::DataLoss(
          "checkpoint snapshot: torn or corrupt record at offset " +
          std::to_string(scanner.pos()));
    }
    if (saw_footer) {
      return Status::DataLoss(
          "checkpoint snapshot: data after footer at offset " +
          std::to_string(offset));
    }
    ByteReader r(payload, offset);
    const uint8_t type = r.U8();
    if (!saw_header) {
      if (type != kSnapshotHeader || !ReadFileHeader(r, &header)) {
        return MalformedRecord("snapshot header", offset);
      }
      TEMPLEX_RETURN_IF_ERROR(
          CheckFileHeader(header, expected_config_hash, "snapshot"));
      checkpoint.config_hash = header.config_hash;
      saw_header = true;
      continue;
    }
    switch (type) {
      case kSymbols: {
        const uint32_t n = r.U32();
        if (!r.FitCount(n, 4)) return MalformedRecord("symbols", offset);
        for (uint32_t i = 0; i < n; ++i) {
          checkpoint.symbols.push_back(r.Str());
        }
        if (!r.ok()) return MalformedRecord("symbols", offset);
        saw_symbols = true;
        break;
      }
      case kNodes: {
        if (!saw_symbols) {
          return Status::DataLoss(
              "checkpoint snapshot: nodes before symbol table at offset " +
              std::to_string(offset));
        }
        const uint32_t n = r.U32();
        if (!r.FitCount(n, 17)) return MalformedRecord("nodes", offset);
        for (uint32_t i = 0; i < n; ++i) {
          ChaseNode node;
          if (!ReadNode(r, checkpoint.symbols, &node)) {
            return MalformedRecord("nodes", offset);
          }
          checkpoint.nodes.push_back(std::move(node));
        }
        break;
      }
      case kAggregates: {
        const uint32_t n = r.U32();
        if (!r.FitCount(n, 17)) return MalformedRecord("aggregates", offset);
        for (uint32_t i = 0; i < n; ++i) {
          AggregateEntryRecord entry;
          if (!ReadAggregateEntry(r, &entry)) {
            return MalformedRecord("aggregates", offset);
          }
          checkpoint.aggregates.push_back(std::move(entry));
        }
        break;
      }
      case kSnapshotFooter: {
        if (!ReadCursor(r, &checkpoint.cursor)) {
          return MalformedRecord("footer", offset);
        }
        footer_nodes = r.U64();
        footer_aggregates = r.U64();
        if (!r.ok() || !r.AtEnd()) return MalformedRecord("footer", offset);
        saw_footer = true;
        break;
      }
      default:
        return Status::DataLoss(
            "checkpoint snapshot: unknown record type " +
            std::to_string(type) + " at offset " + std::to_string(offset));
    }
  }
  if (!saw_footer) {
    return Status::DataLoss(
        "checkpoint snapshot: truncated (no footer record)");
  }
  if (footer_nodes != checkpoint.nodes.size() ||
      footer_aggregates != checkpoint.aggregates.size()) {
    return Status::DataLoss(
        "checkpoint snapshot: footer counts disagree with records (" +
        std::to_string(footer_nodes) + " vs " +
        std::to_string(checkpoint.nodes.size()) + " nodes)");
  }
  generation_ = header.generation;

  // --- Journal: replay deltas up to the last intact record. A torn or
  // corrupt tail is the expected residue of a crash mid-append — resume
  // from just before it.
  Result<std::string> journal_content =
      fs_->ReadFile(JoinPath(dir_, JournalName(generation_)));
  if (!journal_content.ok()) {
    if (journal_content.status().code() == StatusCode::kNotFound) {
      // Crash between snapshot commit and journal creation: the snapshot
      // alone is the state.
      return checkpoint;
    }
    return journal_content.status();
  }
  const std::string& jdata = journal_content.value();
  auto crash_cut = [&]() {
    if (corrupt_records_ != nullptr) corrupt_records_->Increment();
    LogEvent(obs::EventLevel::kWarn, "journal.torn_tail",
             {{"generation", std::to_string(generation_)}});
  };
  if (jdata.size() < sizeof(kMagic) ||
      std::memcmp(jdata.data(), kMagic, sizeof(kMagic)) != 0) {
    // Journal died before its magic was durable; zero deltas committed.
    crash_cut();
    return checkpoint;
  }
  RecordScanner jscanner(jdata, sizeof(kMagic));
  bool saw_journal_header = false;
  while (true) {
    std::string_view payload;
    size_t offset = 0;
    const RecordScanner::Next next = jscanner.Read(&payload, &offset);
    if (next == RecordScanner::Next::kEof) break;
    if (next == RecordScanner::Next::kCorrupt) {
      crash_cut();
      break;
    }
    ByteReader r(payload, offset);
    const uint8_t type = r.U8();
    if (!saw_journal_header) {
      FileHeader jheader;
      if (type != kJournalHeader || !ReadFileHeader(r, &jheader)) {
        return MalformedRecord("journal header", offset);
      }
      TEMPLEX_RETURN_IF_ERROR(
          CheckFileHeader(jheader, expected_config_hash, "journal"));
      if (jheader.generation != generation_) {
        return Status::DataLoss(
            "checkpoint journal: generation " +
            std::to_string(jheader.generation) +
            " does not match its file name (expected " +
            std::to_string(generation_) + ")");
      }
      saw_journal_header = true;
      continue;
    }
    if (type != kDelta) {
      return Status::DataLoss("checkpoint journal: unexpected record type " +
                              std::to_string(type) + " at offset " +
                              std::to_string(offset));
    }
    // Parse the whole delta before applying any of it, so a malformed
    // record never leaves the checkpoint half-updated.
    CheckpointDelta delta;
    if (!ReadCursor(r, &delta.cursor)) {
      return MalformedRecord("delta cursor", offset);
    }
    const uint32_t syms = r.U32();
    if (!r.FitCount(syms, 4)) return MalformedRecord("delta symbols", offset);
    for (uint32_t i = 0; i < syms; ++i) delta.new_symbols.push_back(r.Str());
    if (!r.ok()) return MalformedRecord("delta symbols", offset);
    // Delta nodes may reference symbols interned in this same delta, so
    // grow the table before parsing them.
    for (std::string& name : delta.new_symbols) {
      checkpoint.symbols.push_back(std::move(name));
    }
    const uint32_t nodes = r.U32();
    if (!r.FitCount(nodes, 17)) return MalformedRecord("delta nodes", offset);
    for (uint32_t i = 0; i < nodes; ++i) {
      ChaseNode node;
      if (!ReadNode(r, checkpoint.symbols, &node)) {
        return MalformedRecord("delta nodes", offset);
      }
      delta.nodes.push_back(std::move(node));
    }
    const uint32_t alts = r.U32();
    if (!r.FitCount(alts, 17)) {
      return MalformedRecord("delta alternatives", offset);
    }
    const size_t node_count = checkpoint.nodes.size() + delta.nodes.size();
    for (uint32_t i = 0; i < alts; ++i) {
      AlternativeRecord alt;
      alt.fact = r.I32();
      if (!ReadDerivation(r, &alt.derivation)) {
        return MalformedRecord("delta alternatives", offset);
      }
      if (alt.fact < 0 || static_cast<size_t>(alt.fact) >= node_count) {
        return Status::DataLoss(
            "checkpoint journal: alternative for out-of-range fact " +
            std::to_string(alt.fact) + " at offset " +
            std::to_string(offset));
      }
      delta.alternatives.push_back(std::move(alt));
    }
    const uint32_t aggs = r.U32();
    if (!r.FitCount(aggs, 17)) {
      return MalformedRecord("delta aggregates", offset);
    }
    for (uint32_t i = 0; i < aggs; ++i) {
      AggregateEntryRecord entry;
      if (!ReadAggregateEntry(r, &entry)) {
        return MalformedRecord("delta aggregates", offset);
      }
      delta.aggregates.push_back(std::move(entry));
    }
    if (!r.AtEnd()) return MalformedRecord("delta", offset);
    // Apply.
    for (ChaseNode& node : delta.nodes) {
      checkpoint.nodes.push_back(std::move(node));
    }
    for (AlternativeRecord& alt : delta.alternatives) {
      checkpoint.nodes[alt.fact].alternatives.push_back(
          std::move(alt.derivation));
    }
    for (AggregateEntryRecord& entry : delta.aggregates) {
      checkpoint.aggregates.push_back(std::move(entry));
    }
    checkpoint.cursor = delta.cursor;
  }

  // The cursor's delta window starts at the graph size before the last
  // committed round, so it can never exceed the restored fact count
  // (equality means the run was at fixpoint).
  if (checkpoint.cursor.resume_delta >= 0 &&
      static_cast<size_t>(checkpoint.cursor.resume_delta) >
          checkpoint.nodes.size()) {
    return Status::DataLoss(
        "checkpoint: cursor at fact " +
        std::to_string(checkpoint.cursor.resume_delta) + " but only " +
        std::to_string(checkpoint.nodes.size()) + " facts restored");
  }
  return checkpoint;
}

}  // namespace templex
