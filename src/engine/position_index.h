#ifndef TEMPLEX_ENGINE_POSITION_INDEX_H_
#define TEMPLEX_ENGINE_POSITION_INDEX_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/flat_index.h"
#include "common/hash.h"
#include "datalog/symbol.h"
#include "datalog/value.h"
#include "engine/fact.h"

namespace templex {

// Facts per (predicate, argument position, value): the secondary index a
// ChaseGraph keeps over its nodes (ChaseGraph::position_index), which the
// graph's candidate selector (ChaseGraph::Candidates) probes for the body
// matcher, negation, existential reuse, the relevance pass and
// ChaseResult::Match. It holds fact ids only — never graph pointers — so
// it copies and moves with the graph that owns it.
//
// Keyed by a packed 64-bit hash of (pred_symbol, position, value hash) — no
// string ever touches a probe. One bucket per distinct key, found through a
// FlatIndex (common/flat_index.h) over the bucket list. Buckets live in a
// deque and never move once created: the sequential chase round holds a
// bucket's id list (a Candidates result) while ProcessMatch adds facts,
// and so new buckets. Hash collisions can merge two value groups
// into one bucket; that is sound (and preserves ascending-id order) because
// every reader still verifies each candidate against the full pattern.
// Collisions ARE counted (chase.index.collision_groups): each bucket
// remembers the (predicate, position, value-hash) triple of its first fact
// and flags the bucket the first time a fact with a different triple lands
// in it.
class PositionIndex {
 public:
  // Indexes every argument of `fact`, whose graph id is `id`. The owning
  // graph calls it exactly once per node, in id order, as it assigns the
  // id and pred_symbol: that is what keeps every bucket ascending by id.
  void Add(FactId id, const Fact& fact);

  // Ids of the facts whose argument `position` may equal `value` under
  // `predicate`, strictly ascending; nullptr when no indexed fact can match.
  // A superset (collisions) that callers must verify.
  const std::vector<FactId>* Find(Symbol predicate, int position,
                                  const Value& value) const {
    const int32_t bucket =
        FindBucket(PosKey(predicate, position, value.Hash()));
    return bucket < 0 ? nullptr : &buckets_[static_cast<size_t>(bucket)].ids;
  }

  // Index shape, exported as chase.index.* counters at the end of a run.
  int64_t position_keys() const {
    return static_cast<int64_t>(buckets_.size());
  }
  int64_t position_entries() const;
  int64_t collision_groups() const { return collision_groups_; }

  // Content-based footprint (common/memory.h accounting): entries and
  // bucket overhead at fixed per-element rates, never hash-table capacity.
  int64_t approx_bytes() const { return bytes_; }

  // Narrows PosKey to its low bits so tests can force collisions without
  // crafting hash-colliding values. Production keeps the full 64 bits.
  void set_position_key_mask_for_testing(uint64_t mask) {
    poskey_mask_ = mask;
  }

 private:
  // One bucket: the candidate ids plus the identity of the first (pred,
  // pos, value-hash) triple that landed here, so later facts can detect
  // they were merged in by a PosKey collision. Distinct values with EQUAL
  // hashes remain indistinguishable — undetected but harmless, readers
  // verify every candidate.
  struct PosBucket {
    std::vector<FactId> ids;
    Symbol predicate = kInvalidSymbol;
    int position = -1;
    uint64_t value_hash = 0;
    bool collided = false;
  };

  // Packed probe key. Exact (pred, position) packing is not required —
  // downstream verification makes any collision harmless — but pred and
  // position are small, so this is near-injective in practice.
  uint64_t PosKey(Symbol predicate, int position, uint64_t value_hash) const {
    return HashCombine(
               (static_cast<uint64_t>(static_cast<uint32_t>(predicate)) << 8) ^
                   static_cast<uint64_t>(static_cast<uint32_t>(position)),
               value_hash) &
           poskey_mask_;
  }

  // The bucket of `key`, or -1. A key is the whole identity of its bucket,
  // so equal hashes are the match.
  int32_t FindBucket(uint64_t key) const {
    return by_key_.Find(key, [](int32_t) { return true; });
  }

  std::deque<PosBucket> buckets_;  // in creation order
  FlatIndex by_key_;               // PosKey -> index into buckets_
  int64_t collision_groups_ = 0;
  int64_t bytes_ = 0;
  uint64_t poskey_mask_ = ~uint64_t{0};
};

}  // namespace templex

#endif  // TEMPLEX_ENGINE_POSITION_INDEX_H_
