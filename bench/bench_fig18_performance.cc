// Regenerates Figure 18: running time of the template-based approach as
// proofs get longer — the time to select, map and instantiate templates for
// an explanation query (proof extraction + mapping + rendering), excluding
// the chase itself. 15 distinct proofs per length, boxplot statistics, for
// both financial KG applications.

#include <cstdio>
#include <fstream>

#include "apps/generators.h"
#include "apps/glossaries.h"
#include "apps/programs.h"
#include "common/timer.h"
#include "engine/chase.h"
#include "engine/proof.h"
#include "explain/explainer.h"
#include "io/json.h"
#include "obs/metrics.h"
#include "stats/descriptive.h"

namespace {

using namespace templex;

constexpr int kProofsPerLength = 15;
constexpr const char* kMetricsSidecar = "fig18_metrics.json";

template <typename Sampler>
void RunApp(const char* title, const Explainer& explainer,
            const std::vector<int>& lengths, Sampler sample, Rng* rng,
            obs::MetricsRegistry* metrics) {
  std::printf("---- %s ----\n", title);
  std::printf("%-6s | %s\n", "steps", "explanation time (milliseconds)");
  ChaseConfig chase_config;
  chase_config.metrics = metrics;
  const ChaseEngine engine(chase_config);
  for (int steps : lengths) {
    std::vector<double> millis;
    for (int i = 0; i < kProofsPerLength; ++i) {
      SampledInstance instance = sample(steps, rng);
      Result<ChaseResult> chase =
          engine.Run(explainer.program(), instance.edb);
      if (!chase.ok()) continue;
      Result<FactId> id = chase.value().Find(instance.goal);
      if (!id.ok()) continue;
      Timer timer;
      Proof proof = Proof::Extract(chase.value().graph, id.value());
      Result<std::string> text = explainer.ExplainProof(proof);
      if (!text.ok()) continue;
      millis.push_back(timer.ElapsedMillis());
    }
    if (millis.empty()) continue;
    std::printf("%-6d | %s\n", steps, Summarize(millis).ToString().c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  Rng rng(20250327);
  // One registry across both apps: the sidecar aggregates rule firings and
  // phase latencies over every sampled chase + explanation of the run.
  obs::MetricsRegistry metrics;
  ExplainerOptions options;
  options.metrics = &metrics;
  auto control = Explainer::Create(CompanyControlProgram(),
                                   CompanyControlGlossary(), options);
  auto stress =
      Explainer::Create(StressTestProgram(), StressTestGlossary(), options);
  if (!control.ok() || !stress.ok()) {
    std::printf("pipeline error\n");
    return 1;
  }
  std::printf(
      "Figure 18: template-based explanation generation time vs proof\n"
      "length (%d proofs per length; boxplot stats)\n\n",
      kProofsPerLength);

  std::vector<int> control_lengths = {1, 3, 5, 7, 9, 11, 13, 16, 18, 21};
  RunApp("Company control (Figure 18a)", *control.value(), control_lengths,
         [](int steps, Rng* r) { return SampleControlChain(steps, r); },
         &rng, &metrics);

  std::vector<int> stress_lengths = {1, 4, 7, 10, 13, 16, 19, 22};
  RunApp("Stress test (Figure 18b)", *stress.value(), stress_lengths,
         [](int steps, Rng* r) { return SampleStressCascade(steps, 2, r); },
         &rng, &metrics);

  std::ofstream sidecar(kMetricsSidecar);
  if (sidecar) {
    sidecar << MetricsSnapshotToJson(metrics.Snapshot()) << "\n";
    std::printf("Aggregate run metrics written to %s\n\n", kMetricsSidecar);
  }

  std::printf(
      "Paper reference: times grow with the number of inference steps; the\n"
      "syntactically richer stress test is slower than company control;\n"
      "absolute numbers differ from the paper's testbed (their maximum is\n"
      "around 3 seconds at 20+ steps on a laptop-class machine).\n");
  return 0;
}
