#include "engine/position_index.h"

namespace templex {

namespace {

// Fixed per-bucket charge (PosBucket fields + one index slot): a constant
// keeps the accounted footprint a pure function of indexed content,
// independent of the index's load factor.
constexpr int64_t kPosBucketBytes = 96;

}  // namespace

void PositionIndex::Add(FactId id, const Fact& fact) {
  for (int pos = 0; pos < fact.arity(); ++pos) {
    const uint64_t value_hash = fact.args[pos].Hash();
    const uint64_t key = PosKey(fact.pred_symbol, pos, value_hash);
    int32_t index = FindBucket(key);
    if (index < 0) {
      index = static_cast<int32_t>(buckets_.size());
      buckets_.push_back(
          PosBucket{{}, fact.pred_symbol, pos, value_hash, false});
      by_key_.Insert(key, index);
      bytes_ += kPosBucketBytes;
    }
    PosBucket& bucket = buckets_[static_cast<size_t>(index)];
    if (!bucket.collided &&
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
}

int64_t PositionIndex::position_entries() const {
  int64_t total = 0;
  for (const PosBucket& bucket : buckets_) {
    total += static_cast<int64_t>(bucket.ids.size());
  }
  return total;
}

}  // namespace templex
