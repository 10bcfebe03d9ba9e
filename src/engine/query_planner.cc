#include "engine/query_planner.h"

#include <map>
#include <set>
#include <string>
#include <utility>

namespace templex {
namespace {

// Adornment of an atom occurrence: one char per argument, 'b' when it
// holds a constant or a variable already bound, 'f' otherwise.
std::string Adornment(const Atom& atom, const std::set<std::string>& bound) {
  std::string adornment;
  for (const Term& term : atom.terms) {
    adornment.push_back(
        term.is_constant() || bound.count(term.variable_name()) ? 'b' : 'f');
  }
  return adornment;
}

bool HasBound(const std::string& adornment) {
  return adornment.find('b') != std::string::npos;
}

// True when `to` is reachable from `from` along `next`.
bool Reaches(const std::vector<std::vector<int>>& next, int from, int to) {
  std::vector<char> seen(next.size(), 0);
  std::vector<int> stack{from};
  seen[from] = 1;
  while (!stack.empty()) {
    int node = stack.back();
    stack.pop_back();
    if (node == to) return true;
    for (int succ : next[node]) {
      if (!seen[succ]) {
        seen[succ] = 1;
        stack.push_back(succ);
      }
    }
  }
  return false;
}

// The eligibility check of PlanQuery (see query_planner.h). Visits the
// (predicate, adornment) pairs reachable from the goal in discovery order,
// binding variables left to right through each rule's positive body, and
// records the predicate-level dependencies a magic-set rewrite would
// create: pair i is node 2i (the adorned predicate) and node 2i+1 (its
// magic guard), with edges from body to head. Returns the first refusal
// met, or "" when the goal is eligible.
std::string QsqrRefusal(const Program& program, const Fact& goal) {
  // A purely extensional goal has nothing to restrict.
  if (!program.IsIntensional(goal.predicate)) return "";

  std::map<std::pair<std::string, std::string>, int> ids;
  std::vector<std::pair<std::string, std::string>> pairs;
  std::vector<std::vector<int>> next;
  struct NegativeEdge {
    int from;  // adorned node of the negated predicate
    int to;    // adorned node of the rule head
    const Rule* rule;
    const Atom* atom;
  };
  std::vector<NegativeEdge> negative;
  auto node = [&](const std::string& pred, const std::string& adornment) {
    auto [it, fresh] = ids.emplace(std::make_pair(pred, adornment),
                                   static_cast<int>(pairs.size()));
    if (fresh) {
      pairs.emplace_back(pred, adornment);
      next.resize(2 * pairs.size());
    }
    return 2 * it->second;
  };

  std::string goal_adornment;
  for (const Value& arg : goal.args) {
    goal_adornment.push_back(arg.is_null() ? 'f' : 'b');
  }
  node(goal.predicate, goal_adornment);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [pred, adornment] = pairs[i];  // copy: `pairs` grows below
    const int head = static_cast<int>(2 * i);
    const int guard = head + 1;
    for (const Rule& rule : program.rules()) {
      if (rule.is_constraint || rule.head.predicate != pred) continue;
      if (!rule.ExistentialVariableNames().empty()) {
        return "rule '" + rule.label +
               "' in the goal's dependency cone has existential head "
               "variables; restricted labeled-null identities would not "
               "match the full chase";
      }
      const std::string result_var =
          rule.has_aggregate() ? rule.aggregate->result_variable : "";
      std::set<std::string> bound;
      for (size_t k = 0; k < rule.head.terms.size(); ++k) {
        const Term& term = rule.head.terms[k];
        if (adornment[k] != 'b' || !term.is_variable()) continue;
        if (!result_var.empty() && term.variable_name() == result_var) {
          return "goal binds the aggregate result position of rule '" +
                 rule.label +
                 "'; values cannot be seeded through a monotone aggregate";
        }
        bound.insert(term.variable_name());
      }

      // `prefix` holds the IDB nodes (and the guard) a magic rule for the
      // next body atom would read.
      std::vector<int> prefix;
      if (HasBound(adornment)) {
        next[guard].push_back(head);
        prefix.push_back(guard);
      }
      for (const Atom& atom : rule.body) {
        if (program.IsIntensional(atom.predicate)) {
          const std::string beta = Adornment(atom, bound);
          const int callee = node(atom.predicate, beta);
          next[callee].push_back(head);
          if (HasBound(beta)) {
            for (int p : prefix) next[p].push_back(callee + 1);
          }
          prefix.push_back(callee);
        }
        for (const std::string& var : atom.VariableNames()) bound.insert(var);
      }
      // Rule safety binds every variable of a negated atom in the positive
      // body, so its adornment is all-'b' and its magic rule reads the
      // whole positive prefix.
      for (const Atom& atom : rule.negative_body) {
        if (!program.IsIntensional(atom.predicate)) continue;
        const int callee = node(atom.predicate, Adornment(atom, bound));
        next[callee].push_back(head);
        negative.push_back({callee, head, &rule, &atom});
        for (int p : prefix) next[p].push_back(callee + 1);
      }
    }
  }

  // A negative edge lies on a cycle when its head reaches its body.
  for (const NegativeEdge& edge : negative) {
    if (Reaches(next, edge.to, edge.from)) {
      return "magic guards close a cycle through 'not " +
             edge.atom->ToString() + "' in rule '" + edge.rule->label +
             "'; the goal-restricted program would not stratify";
    }
  }
  return "";
}

}  // namespace

const char* EvalModeName(EvalMode mode) {
  switch (mode) {
    case EvalMode::kAuto:
      return "auto";
    case EvalMode::kMaterialize:
      return "materialize";
    case EvalMode::kQsqr:
      return "qsqr";
  }
  return "unknown";
}

Result<EvalMode> ParseEvalMode(std::string_view text) {
  if (text == "auto") return EvalMode::kAuto;
  if (text == "materialize") return EvalMode::kMaterialize;
  if (text == "qsqr") return EvalMode::kQsqr;
  return Status::InvalidArgument("unknown eval mode '" + std::string(text) +
                                 "' (want auto, materialize, or qsqr)");
}

QueryPlan PlanQuery(const Program& program, const std::vector<Fact>& edb,
                    const Fact& goal_pattern, EvalMode requested) {
  QueryPlan plan;
  plan.arity = goal_pattern.arity();
  for (const Value& arg : goal_pattern.args) {
    if (!arg.is_null()) ++plan.bound_args;
  }
  plan.edb_facts = static_cast<int64_t>(edb.size());

  plan.qsqr_refusal = QsqrRefusal(program, goal_pattern);

  if (requested == EvalMode::kMaterialize) {
    plan.mode = EvalMode::kMaterialize;
    plan.reason = "forced by --eval-mode=materialize";
    return plan;
  }
  if (!plan.qsqr_refusal.empty()) {
    plan.mode = EvalMode::kMaterialize;
    plan.reason = "query-driven evaluation refused: " + plan.qsqr_refusal;
    return plan;
  }
  if (requested == EvalMode::kQsqr) {
    plan.mode = EvalMode::kQsqr;
    plan.reason = "forced by --eval-mode=qsqr";
    return plan;
  }

  if (plan.bound_args == 0) {
    plan.mode = EvalMode::kMaterialize;
    plan.reason =
        "goal has no bound arguments; enumeration needs the full relation";
    return plan;
  }
  // Every eligible bound goal runs query-driven: with the semi-naive
  // relevance pass, materializing wins only where nearly the whole EDB is
  // relevant, and there by less than the pass costs to find that out
  // (DESIGN.md §12).
  plan.mode = EvalMode::kQsqr;
  plan.reason = "bound goal; query-driven";
  return plan;
}

}  // namespace templex
