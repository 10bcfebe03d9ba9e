#include "engine/node_graph.h"

#include <algorithm>
#include <utility>

#include "engine/chase_graph.h"

namespace templex {

void NodeGraph::SealRound(const ChaseGraph& graph, FactId limit,
                          int64_t round) {
  if (limit <= sealed_limit_) return;
  const int num_symbols = graph.symbols().size();
  for (Symbol predicate = 0; predicate < num_symbols; ++predicate) {
    const std::vector<FactId>& ids = graph.FactsOf(predicate);
    auto first = std::lower_bound(ids.begin(), ids.end(), sealed_limit_);
    auto last = std::lower_bound(first, ids.end(), limit);
    if (first == last) continue;  // predicate gained nothing this round
    segment_nodes_.push_back(
        SegmentNode{predicate, round, *first, *(last - 1) + 1});
  }
  sealed_limit_ = limit;
}

void NodeGraph::AddRuleExecution(const RuleExecution& exec) {
  rule_executions_.push_back(exec);
  if (exec.skipped) {
    ++skipped_rules_;
  } else {
    ++executed_rules_;
  }
}

bool NodeGraph::PredicateGrewSince(Symbol predicate, FactId since) const {
  // Nodes are appended in seal order: rounds ascend across the vector, but
  // ranges of sibling nodes within one round can interleave. A node with
  // id_end <= since proves every strictly-earlier round is stale too (all
  // their ids sit below this round's delta window) — so after meeting one,
  // only the rest of its own round still needs checking.
  bool saw_stale = false;
  int64_t stale_round = 0;
  for (auto it = segment_nodes_.rbegin(); it != segment_nodes_.rend(); ++it) {
    if (saw_stale && it->round != stale_round) break;
    if (it->id_end <= since) {
      if (!saw_stale) {
        saw_stale = true;
        stale_round = it->round;
      }
      continue;
    }
    if (it->predicate == predicate) return true;
  }
  return false;
}

void NodeGraph::Restore(std::vector<SegmentNode> nodes,
                        std::vector<RuleExecution> executions,
                        FactId restored_limit) {
  segment_nodes_ = std::move(nodes);
  rule_executions_.clear();
  skipped_rules_ = 0;
  executed_rules_ = 0;
  for (const RuleExecution& exec : executions) AddRuleExecution(exec);
  sealed_limit_ = restored_limit;
}

}  // namespace templex
