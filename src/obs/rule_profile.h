#ifndef TEMPLEX_OBS_RULE_PROFILE_H_
#define TEMPLEX_OBS_RULE_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace templex {
namespace obs {

// Per-rule cost attribution for the chase, in the spirit of the per-rule
// execution accounting the Vadalog System and Nemo lean on for workload
// tuning: which rules eat the match budget, which derive mostly
// duplicates, and how much delta the semi-naive windows actually feed
// them.
//
// The engine accumulates one RuleProfile per (rule, stratum). The count
// columns — matches, firings, duplicates, delta_facts — are deterministic;
// the seconds columns are wall-clock and therefore are not
// (RuleProfileTable can exclude them for deterministic output).

struct RuleProfile {
  std::string rule;         // metric label ("sigma1" or "rule<i>")
  int stratum = 0;          // strata are profiled separately
  int64_t matches = 0;      // body matches enumerated
  int64_t firings = 0;      // head emissions (duplicates included)
  int64_t duplicates = 0;   // head facts already present
  // Pivot-window sizes summed over the rule's EXECUTED passes. Passes the
  // chase skips (no pivot row in the window) contribute nothing — so this
  // measures delta actually scanned, not delta nominally available.
  int64_t delta_facts = 0;
  double match_seconds = 0.0;   // time enumerating body matches
  double derive_seconds = 0.0;  // time applying heads (derive + dedupe)
};

// Sorts by matches descending, then rule name, then stratum — the "who is
// eating the budget" order used for top-K reporting. Stable from run to
// run because the keys are the deterministic columns.
void SortRuleProfilesByCost(std::vector<RuleProfile>* profiles);

// Fixed-width table of the top_k most expensive profiles (0 = all).
// include_seconds adds the match/derive wall-clock columns; leave it off
// when the output must be byte-identical from run to run
// (templex_cli --rule-profile does).
std::string RuleProfileTable(std::vector<RuleProfile> profiles, size_t top_k,
                             bool include_seconds);

}  // namespace obs
}  // namespace templex

#endif  // TEMPLEX_OBS_RULE_PROFILE_H_
