// Full deployment workflow: the KnowledgeGraphApplication facade driving
// the company-control application the way a downstream integration would —
// facts from CSV, data-quality constraints, wildcard queries, explanation
// queries, anonymized reports for exports, and JSON for a graph front-end.

#include <cstdio>

#include "apps/application.h"
#include "apps/glossaries.h"
#include "datalog/parser.h"
#include "io/csv.h"

int main() {
  using namespace templex;

  // The deployed application: the company-control rules plus two
  // data-quality constraints (negative constraints, `body -> !.`), and a
  // derived "independent company" predicate using stratified negation.
  Result<Program> program = ParseProgram(R"(
@goal Control.
sigma1: Own(x, y, s), s > 0.5 -> Control(x, y).
sigma2: Company(x) -> Control(x, x).
sigma3: Control(x, z), Own(z, y, s), ts = sum(s, [z]), ts > 0.5 -> Control(x, y).
ind:    Company(x), not ControlledByOther(x) -> Independent(x).
cbo:    Control(x, y), x != y -> ControlledByOther(y).
c_share: Own(x, y, s), s > 1 -> !.
c_self:  Own(x, x, s) -> !.
)");
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  DomainGlossary glossary = CompanyControlGlossary();
  auto must = [](Status status) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
  };
  must(glossary.Register("ControlledByOther",
                         {"<x> is controlled by another entity", {"x"}, {}}));
  must(glossary.Register("Independent",
                         {"<x> is an independent company", {"x"}, {}}));

  auto app = KnowledgeGraphApplication::Create(std::move(program).value(),
                                               std::move(glossary));
  if (!app.ok()) {
    std::fprintf(stderr, "%s\n", app.status().ToString().c_str());
    return 1;
  }

  // Facts arrive as CSV — the shape a database export has. The 130% share
  // is a deliberate data-quality error for the constraint to catch.
  const char* kCsv = R"(# ownership extract
Company,"UmbriaFin"
Company,"LigureBank"
Company,"AdriaticoFund"
Company,"TirrenoCredit"
Own,"UmbriaFin","LigureBank",0.64
Own,"LigureBank","AdriaticoFund",0.3
Own,"UmbriaFin","AdriaticoFund",0.25
Own,"AdriaticoFund","TirrenoCredit",1.3
)";
  Result<std::vector<Fact>> facts = ParseFactsCsv(kCsv);
  if (!facts.ok()) {
    std::fprintf(stderr, "%s\n", facts.status().ToString().c_str());
    return 1;
  }
  app.value()->AddFacts(std::move(facts).value());
  must(app.value()->Run());

  std::printf("== Data-quality violations ==\n");
  for (const ConstraintViolation& violation : app.value()->violations()) {
    std::printf("  %s\n",
                violation.ToString(app.value()->chase().graph).c_str());
  }

  std::printf("\n== Who does UmbriaFin control? (wildcard query) ==\n");
  auto S = [](const char* s) { return Value::String(s); };
  for (const Fact& control :
       app.value()->Query({"Control", {S("UmbriaFin"), Value::Null()}})) {
    if (control.args[0] == control.args[1]) continue;
    std::printf("  %s\n", control.ToString().c_str());
  }
  std::printf("\n== Independent companies (negation-derived) ==\n");
  for (const Fact& fact :
       app.value()->Query({"Independent", {Value::Null()}})) {
    std::printf("  %s\n", fact.ToString().c_str());
  }

  Fact query{"Control", {S("UmbriaFin"), S("AdriaticoFund")}};
  Result<std::string> text = app.value()->Explain(query);
  if (!text.ok()) {
    std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== Q_e = {%s} ==\n%s\n", query.ToString().c_str(),
              text.value().c_str());

  // The same report, pseudonymized for sharing outside the trust boundary.
  AnonymizerOptions anonymizer;
  anonymizer.coarsen_numbers = false;
  Result<AnonymizedText> anonymized =
      app.value()->ExplainAnonymized(query, anonymizer);
  if (!anonymized.ok()) {
    std::fprintf(stderr, "%s\n", anonymized.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== Same report, anonymized ==\n%s\n",
              anonymized.value().text.c_str());

  // JSON for a graph front-end (truncated for display).
  Result<std::string> proof_json = app.value()->ExportProofJson(query);
  if (proof_json.ok()) {
    std::printf("\n== Proof as JSON (first 240 chars) ==\n%.240s...\n",
                proof_json.value().c_str());
  }
  return 0;
}
