// Chase-level coverage of every aggregation function (§3 lists sum, prod,
// min, max, count) and of aggregation corner cases beyond the financial
// applications' sums.

#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "engine/chase.h"
#include "engine/proof.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value I(int64_t i) { return Value::Int(i); }
Value D(double d) { return Value::Double(d); }

ChaseResult RunChase(const char* source, std::vector<Fact> edb) {
  Result<Program> program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  Result<ChaseResult> result = ChaseEngine().Run(program.value(), edb);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(ChaseAggregatesTest, MinTracksSmallestContribution) {
  ChaseResult chase = RunChase("a: Bid(k, v), m = min(v) -> Best(k, m).",
                          {{"Bid", {S("lot"), I(9)}},
                           {"Bid", {S("lot"), I(4)}},
                           {"Bid", {S("lot"), I(7)}}});
  EXPECT_TRUE(chase.Find({"Best", {S("lot"), I(4)}}).ok());
}

TEST(ChaseAggregatesTest, MaxTracksLargestContribution) {
  ChaseResult chase = RunChase("a: Bid(k, v), m = max(v) -> Top(k, m).",
                          {{"Bid", {S("lot"), I(9)}},
                           {"Bid", {S("lot"), I(4)}}});
  EXPECT_TRUE(chase.Find({"Top", {S("lot"), I(9)}}).ok());
}

TEST(ChaseAggregatesTest, CountCountsDistinctContributors) {
  ChaseResult chase = RunChase("a: Holder(k, w), n = count(w) -> Holders(k, n).",
                          {{"Holder", {S("x"), S("p")}},
                           {"Holder", {S("x"), S("q")}},
                           {"Holder", {S("x"), S("q")}},  // duplicate fact
                           {"Holder", {S("y"), S("p")}}});
  EXPECT_TRUE(chase.Find({"Holders", {S("x"), I(2)}}).ok());
  EXPECT_TRUE(chase.Find({"Holders", {S("y"), I(1)}}).ok());
}

TEST(ChaseAggregatesTest, ProdMultipliesShares) {
  ChaseResult chase = RunChase("a: Leg(k, s), p = prod(s) -> PathShare(k, p).",
                          {{"Leg", {S("r"), D(0.5)}},
                           {"Leg", {S("r"), D(0.4)}}});
  EXPECT_TRUE(chase.Find({"PathShare", {S("r"), D(0.2)}}).ok());
}

TEST(ChaseAggregatesTest, GroupsByAllNonAggregateHeadVariables) {
  ChaseResult chase = RunChase(
      "a: Debt(d, c, v), t = sum(v) -> Total(d, c, t).",
      {{"Debt", {S("A"), S("B"), I(2)}},
       {"Debt", {S("A"), S("B"), I(3)}},
       {"Debt", {S("A"), S("C"), I(7)}}});
  EXPECT_TRUE(chase.Find({"Total", {S("A"), S("B"), I(5)}}).ok());
  EXPECT_TRUE(chase.Find({"Total", {S("A"), S("C"), I(7)}}).ok());
}

TEST(ChaseAggregatesTest, AggregateFeedingAggregate) {
  // Per-channel totals, then the per-creditor sum over channel maxima — the
  // σ5/σ7 layering in isolation.
  ChaseResult chase = RunChase(R"(
a: Debt(c, ch, v), t = sum(v) -> Channel(c, t, ch).
b: Channel(c, t, ch), g = sum(t, [ch]) -> Grand(c, g).
)",
                          {{"Debt", {S("F"), S("long"), I(2)}},
                           {"Debt", {S("F"), S("long"), I(3)}},
                           {"Debt", {S("F"), S("short"), I(9)}}});
  EXPECT_TRUE(chase.Find({"Channel", {S("F"), I(5), S("long")}}).ok());
  // Grand total uses the *latest* long value (5), not the running 2.
  EXPECT_TRUE(chase.Find({"Grand", {S("F"), I(14)}}).ok());
}

TEST(ChaseAggregatesTest, AggregateProvenanceContributorsOrdered) {
  ChaseResult chase = RunChase(
      "a: Debt(d, c, v), t = sum(v) -> Total(c, t).",
      {{"Debt", {S("B"), S("C"), I(9)}},
       {"Debt", {S("A"), S("C"), I(2)}}});
  FactId id = chase.Find({"Total", {S("C"), I(11)}}).value();
  const Derivation& derivation = chase.graph.node(id).derivation;
  ASSERT_EQ(derivation.contributions.size(), 2u);
  // Ordered by contributor key (debtor name), not insertion order.
  EXPECT_EQ(derivation.contributions[0].input, I(2));
  EXPECT_EQ(derivation.contributions[1].input, I(9));
}

TEST(ChaseAggregatesTest, PreConditionFiltersContributions) {
  // Only debts above the reporting threshold count toward the total.
  ChaseResult chase = RunChase(
      "a: Debt(d, c, v), v >= 5, t = sum(v) -> Total(c, t).",
      {{"Debt", {S("A"), S("C"), I(2)}},
       {"Debt", {S("B"), S("C"), I(9)}},
       {"Debt", {S("D"), S("C"), I(6)}}});
  EXPECT_TRUE(chase.Find({"Total", {S("C"), I(15)}}).ok());
  EXPECT_FALSE(chase.Find({"Total", {S("C"), I(17)}}).ok());
}

TEST(ChaseAggregatesTest, AggregateOverAssignedVariable) {
  // The aggregation input can be an assigned expression.
  ChaseResult chase = RunChase(
      "a: Own(x, y, s), w = s * 100, t = sum(w) -> Basis(y, t).",
      {{"Own", {S("A"), S("C"), D(0.2)}},
       {"Own", {S("B"), S("C"), D(0.3)}}});
  EXPECT_TRUE(chase.Find({"Basis", {S("C"), I(50)}}).ok());
}

TEST(ChaseAggregatesTest, EmptyGroupsDeriveNothing) {
  ChaseResult chase = RunChase("a: Debt(d, c, v), t = sum(v) -> Total(c, t).", {});
  EXPECT_TRUE(chase.FactsOf("Total").empty());
}

}  // namespace
}  // namespace templex
