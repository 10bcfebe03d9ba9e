#ifndef TEMPLEX_ENGINE_NODE_GRAPH_H_
#define TEMPLEX_ENGINE_NODE_GRAPH_H_

#include <cstdint>
#include <vector>

#include "datalog/symbol.h"
#include "engine/fact.h"

namespace templex {

class ChaseGraph;  // engine/chase_graph.h

// One sealed delta of a predicate: the fact-id range [id_begin, id_end)
// that round `round` contributed (round 0 is the EDB load, or on resume
// the whole restored base). These are the nodes of the trigger graph —
// a rule is only worth executing when at least one of its body predicates
// gained a node since the rule's last execution.
struct SegmentNode {
  Symbol predicate = kInvalidSymbol;
  int64_t round = 0;
  FactId id_begin = 0;
  FactId id_end = 0;

  friend bool operator==(const SegmentNode&, const SegmentNode&) = default;
};

// One rule execution the chase decided on (whether or not it ran): which
// passes actually scanned pivot rows and which were skipped because the
// pivot window was empty. Recorded on the driving thread once per (rule,
// round) — never per worker task — so the totals are identical at any
// thread count.
struct RuleExecution {
  int rule_index = 0;
  int stratum = 0;
  int64_t round = 0;
  int passes_run = 0;
  int passes_skipped = 0;
  bool skipped = false;  // no pass had pivot rows: matching bypassed entirely

  friend bool operator==(const RuleExecution&, const RuleExecution&) = default;
};

// Append-only record of the chase's segment nodes and rule executions.
// Checkpoints serialize both vectors, so a resumed run reports the same
// chase.join.* counters as the uninterrupted one: Restore seeds the
// history and moves the sealed watermark past the restored base, which
// the restored nodes already cover.
class NodeGraph {
 public:
  // Seals the facts of `graph` in [sealed_limit, limit): records one
  // SegmentNode per predicate that grew, tagged `round`. Idempotent at a
  // given limit; must be called with non-decreasing limits, after the
  // facts exist.
  void SealRound(const ChaseGraph& graph, FactId limit, int64_t round);

  void AddRuleExecution(const RuleExecution& exec);

  // True when `predicate` gained any fact at id >= `since` — the trigger
  // test: a rule whose every body predicate is unchanged since its last
  // execution cannot produce new matches.
  bool PredicateGrewSince(Symbol predicate, FactId since) const;

  const std::vector<SegmentNode>& segment_nodes() const {
    return segment_nodes_;
  }
  const std::vector<RuleExecution>& rule_executions() const {
    return rule_executions_;
  }

  int64_t skipped_rules() const { return skipped_rules_; }
  int64_t executed_rules() const { return executed_rules_; }

  // Content-based footprint: both records are flat structs, so element
  // counts times element sizes (never vector capacities) is exact.
  int64_t approx_bytes() const {
    return static_cast<int64_t>(segment_nodes_.size() * sizeof(SegmentNode)) +
           static_cast<int64_t>(rule_executions_.size() *
                                sizeof(RuleExecution));
  }

  // Seeds the graph from a checkpoint whose nodes cover the facts below
  // `restored_limit`; the next SealRound records only facts from there on.
  void Restore(std::vector<SegmentNode> nodes,
               std::vector<RuleExecution> executions, FactId restored_limit);

 private:
  std::vector<SegmentNode> segment_nodes_;
  std::vector<RuleExecution> rule_executions_;
  FactId sealed_limit_ = 0;
  int64_t skipped_rules_ = 0;
  int64_t executed_rules_ = 0;
};

}  // namespace templex

#endif  // TEMPLEX_ENGINE_NODE_GRAPH_H_
