#include "engine/position_index.h"

namespace templex {

namespace {

// Fixed per-bucket charge (PosBucket fields + one hash-table slot): a
// constant keeps the accounted footprint a pure function of indexed
// content, independent of hash-table load factor.
constexpr int64_t kPosBucketBytes = 96;

}  // namespace

void PositionIndex::Add(FactId id, const Fact& fact) {
  for (int pos = 0; pos < fact.arity(); ++pos) {
    const uint64_t value_hash = fact.args[pos].Hash();
    PosBucket& bucket =
        by_position_[PosKey(fact.pred_symbol, pos, value_hash)];
    if (bucket.ids.empty()) {
      bytes_ += kPosBucketBytes;
      bucket.predicate = fact.pred_symbol;
      bucket.position = pos;
      bucket.value_hash = value_hash;
    } else if (!bucket.collided &&
               (bucket.predicate != fact.pred_symbol ||
                bucket.position != pos || bucket.value_hash != value_hash)) {
      bucket.collided = true;
      ++collision_groups_;
    }
    // Two positions of one fact can collide into one bucket: list the fact
    // once, so no reader sees the same candidate twice.
    if (bucket.ids.empty() || bucket.ids.back() != id) {
      bucket.ids.push_back(id);
      bytes_ += static_cast<int64_t>(sizeof(FactId));
    }
  }
  ++indexed_facts_;
}

int64_t PositionIndex::position_entries() const {
  int64_t total = 0;
  for (const auto& [key, bucket] : by_position_) {
    total += static_cast<int64_t>(bucket.ids.size());
  }
  return total;
}

}  // namespace templex
