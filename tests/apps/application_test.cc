#include "apps/application.h"

#include <gtest/gtest.h>

#include "apps/glossaries.h"
#include "apps/programs.h"
#include "datalog/parser.h"
#include "io/csv.h"
#include "obs/metrics.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value D(double d) { return Value::Double(d); }

std::unique_ptr<KnowledgeGraphApplication> ControlApp() {
  auto app = KnowledgeGraphApplication::Create(CompanyControlProgram(),
                                               CompanyControlGlossary());
  EXPECT_TRUE(app.ok()) << app.status().ToString();
  return std::move(app).value();
}

TEST(ApplicationTest, RunAndQueryWithWildcards) {
  auto app = ControlApp();
  app->AddFacts({{"Own", {S("A"), S("B"), D(0.6)}},
                 {"Own", {S("B"), S("C"), D(0.7)}}});
  ASSERT_TRUE(app->Run().ok());
  // All controls of A: wildcard second argument.
  auto controls = app->Query({"Control", {S("A"), Value::Null()}});
  EXPECT_EQ(controls.size(), 2u);  // B and C
  // Fully-ground pattern.
  EXPECT_EQ(app->Query({"Control", {S("A"), S("C")}}).size(), 1u);
  // All-wildcard pattern.
  EXPECT_EQ(app->Query({"Control", {Value::Null(), Value::Null()}}).size(),
            3u);
}

TEST(ApplicationTest, RunForQueryMaterializeCountsAsQueryRun) {
  // Auto runs every eligible bound goal query-driven, so the caller asks
  // for materialization; the run must still be a counted query run.
  auto app = ControlApp();
  app->AddFacts({{"Own", {S("A"), S("B"), D(0.6)}},
                 {"Own", {S("B"), S("C"), D(0.7)}}});
  obs::MetricsRegistry registry;
  ChaseConfig config;
  config.metrics = &registry;
  auto run = app->RunForQuery({"Control", {S("A"), Value::Null()}}, config,
                              EvalMode::kMaterialize);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().plan.mode, EvalMode::kMaterialize);
  EXPECT_FALSE(run.value().stats.query_driven);
  EXPECT_EQ(run.value().stats.fallback_reason, run.value().plan.reason);
  EXPECT_EQ(run.value().answers.size(), 2u);  // B and C
  EXPECT_EQ(registry.counter("chase.query.runs")->value(), 1);
  EXPECT_EQ(registry.counter("chase.query.fallbacks")->value(), 1);
  EXPECT_EQ(app->Query({"Control", {S("A"), Value::Null()}}).size(), 2u);
}

TEST(ApplicationTest, QueryBeforeRunIsEmpty) {
  auto app = ControlApp();
  app->AddFacts({{"Own", {S("A"), S("B"), D(0.6)}}});
  EXPECT_FALSE(app->has_run());
  EXPECT_TRUE(app->Query({"Control", {Value::Null(), Value::Null()}}).empty());
  EXPECT_EQ(app->Explain({"Control", {S("A"), S("B")}}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ApplicationTest, AddFactsInvalidatesChase) {
  auto app = ControlApp();
  app->AddFacts({{"Own", {S("A"), S("B"), D(0.6)}}});
  ASSERT_TRUE(app->Run().ok());
  EXPECT_TRUE(app->has_run());
  app->AddFacts({{"Own", {S("B"), S("C"), D(0.7)}}});
  EXPECT_FALSE(app->has_run());
  ASSERT_TRUE(app->Run().ok());
  EXPECT_EQ(app->Query({"Control", {S("A"), S("C")}}).size(), 1u);
}

TEST(ApplicationTest, ExplainEndToEnd) {
  auto app = ControlApp();
  app->AddFacts({{"Own", {S("A"), S("B"), D(0.6)}},
                 {"Own", {S("B"), S("C"), D(0.7)}}});
  ASSERT_TRUE(app->Run().ok());
  auto text = app->Explain({"Control", {S("A"), S("C")}});
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text.value().find("60%"), std::string::npos);
  EXPECT_NE(text.value().find("70%"), std::string::npos);
}

TEST(ApplicationTest, ExplainAnonymized) {
  auto app = ControlApp();
  app->AddFacts({{"Own", {S("SecretBank"), S("HiddenFund"), D(0.6)}}});
  ASSERT_TRUE(app->Run().ok());
  auto anonymized =
      app->ExplainAnonymized({"Control", {S("SecretBank"), S("HiddenFund")}});
  ASSERT_TRUE(anonymized.ok()) << anonymized.status().ToString();
  EXPECT_EQ(anonymized.value().text.find("SecretBank"), std::string::npos);
  EXPECT_NE(anonymized.value().text.find("Entity-"), std::string::npos);
}

TEST(ApplicationTest, ViolationsSurface) {
  Program program = ParseProgram(R"(
@goal Control.
s1: Own(x, y, s), s > 0.5 -> Control(x, y).
c1: Own(x, y, s), s > 1 -> !.
)")
                        .value();
  DomainGlossary glossary = CompanyControlGlossary();
  auto app = KnowledgeGraphApplication::Create(program, glossary);
  ASSERT_TRUE(app.ok()) << app.status().ToString();
  app.value()->AddFacts({{"Own", {S("A"), S("B"), D(1.4)}}});
  ASSERT_TRUE(app.value()->Run().ok());
  ASSERT_EQ(app.value()->violations().size(), 1u);
  EXPECT_EQ(app.value()->chase().graph.RuleLabel(
                app.value()->violations()[0].rule_index),
            "c1");
}

TEST(ApplicationTest, JsonExports) {
  auto app = ControlApp();
  app->AddFacts({{"Own", {S("A"), S("B"), D(0.6)}}});
  // Templates export works before running.
  EXPECT_NE(app->ExportTemplatesJson().find("\"rules\""), std::string::npos);
  EXPECT_FALSE(app->ExportChaseJson().ok());
  ASSERT_TRUE(app->Run().ok());
  auto chase_json = app->ExportChaseJson();
  ASSERT_TRUE(chase_json.ok());
  EXPECT_NE(chase_json.value().find("\"predicate\":\"Control\""),
            std::string::npos);
  auto proof_json = app->ExportProofJson({"Control", {S("A"), S("B")}});
  ASSERT_TRUE(proof_json.ok());
  EXPECT_NE(proof_json.value().find("\"rules\":[\"sigma1\"]"),
            std::string::npos);
}

TEST(ApplicationTest, CsvIntegration) {
  auto app = ControlApp();
  auto facts = ParseFactsCsv(
      "Own,\"A\",\"B\",0.6\n"
      "Own,\"B\",\"C\",0.7\n");
  ASSERT_TRUE(facts.ok());
  app->AddFacts(std::move(facts).value());
  ASSERT_TRUE(app->Run().ok());
  EXPECT_EQ(app->Query({"Control", {S("A"), S("C")}}).size(), 1u);
}

}  // namespace
}  // namespace templex
