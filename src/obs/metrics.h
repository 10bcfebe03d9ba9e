#ifndef TEMPLEX_OBS_METRICS_H_
#define TEMPLEX_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace templex {
namespace obs {

// Named instruments for the reasoning and explanation layers, modelled on
// the per-phase counters mature chase engines carry (VLog's durationJoin /
// durationCreateHead breakdown and trigger counters). Instruments are
// created on demand, addressed by dotted names ("chase.rule.sigma1.firings",
// "explain.phase.map.seconds" — see docs/OBSERVABILITY.md for the scheme),
// and snapshot into plain structs for JSON export or profile tables.
//
// Instrumented code receives a MetricsRegistry* that may be null; every
// instrumentation site branches on it, so a run without a registry pays
// one pointer test per site and nothing else.
//
// Thread-safe: the daemon's workers bump instruments concurrently.
// Counters and gauges are single atomic cells; histograms stripe their
// buckets across several atomic cells so concurrent observers do not
// serialize on one cache line; the registry's get-or-create maps take a
// mutex (hot loops resolve instruments once and bump raw pointers, so the
// lock is off every hot path). Snapshots are not linearizable across
// instruments — taking one concurrently with writers yields some valid
// interleaving, and quiescent snapshots are exact.

// Monotonically increasing integer (events: firings, matches, duplicates).
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Last-write-wins floating-point level (sizes, ratios).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram with percentile summaries. Buckets are defined by
// ascending upper bounds; observations above the last bound land in an
// implicit overflow bucket. Percentiles interpolate linearly inside the
// containing bucket (Prometheus-style) and are clamped to the exact
// observed [min, max], so small-count histograms stay honest.
//
// Observe() is wait-free outside of min/max CAS retries: state lives in
// kStripes independent stripes of atomic cells and each thread writes the
// stripe it hashed to, so concurrent observers touch disjoint cache lines.
// Readers aggregate across stripes.
class Histogram {
 public:
  // Default bounds: a 1-2-5 ladder from 1 microsecond to 10 seconds,
  // in seconds — sized for the latencies the chase and explain phases emit.
  static std::vector<double> DefaultLatencyBounds();

  explicit Histogram(std::vector<double> bounds = DefaultLatencyBounds());

  void Observe(double value);

  int64_t count() const;
  double sum() const;
  double min() const;
  double max() const;

  // p in (0, 100]; returns 0 when empty.
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  // Aggregated across stripes; bounds_.size() + 1 entries (overflow last).
  std::vector<int64_t> bucket_counts() const;

 private:
  static constexpr int kStripes = 8;

  struct Stripe {
    std::vector<std::atomic<int64_t>> buckets;
    std::atomic<int64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};
    std::atomic<double> max{0.0};

    explicit Stripe(size_t num_buckets) : buckets(num_buckets) {}
  };

  Stripe& LocalStripe();

  std::vector<double> bounds_;  // ascending upper bounds
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

// Point-in-time copies, ordered by name (std::map iteration), so two
// identical runs snapshot byte-identical JSON.
struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  // The full bucket layout (ascending upper bounds; buckets has one extra
  // trailing overflow cell), so recorded metrics feed downstream analyses
  // — e.g. stats/descriptive.h SummarizeHistogram() reconstructs the
  // five-number boxplot summaries behind the Figure-18-style plots without
  // bespoke timers.
  std::vector<double> bounds;
  std::vector<int64_t> buckets;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // Lookup by exact name; nullptr when absent.
  const CounterSnapshot* FindCounter(const std::string& name) const;
  const GaugeSnapshot* FindGauge(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

// Get-or-create registry. Returned pointers are stable for the registry's
// lifetime, so hot loops resolve instruments once and bump raw pointers.
// Get-or-create and Snapshot are serialized by an internal mutex; the
// instruments themselves are lock-free.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  // `bounds` only applies on first creation of `name`.
  Histogram* histogram(const std::string& name);
  Histogram* histogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Fixed-width human-readable summary of a snapshot (the templex_cli
// --profile output): counters first, then gauges, then histograms with
// count / p50 / p95 / p99 / total columns.
std::string ProfileTable(const MetricsSnapshot& snapshot);

// Prometheus text exposition (version 0.0.4) of a snapshot — what a future
// /metrics endpoint serves, and what `templex_cli --metrics-prom` writes.
// Dotted metric names are sanitized to the Prometheus charset (every char
// outside [a-zA-Z0-9_:] becomes '_') and prefixed "templex_": the counter
// "chase.rule.sigma1.firings" exports as
//
//   # TYPE templex_chase_rule_sigma1_firings counter
//   templex_chase_rule_sigma1_firings 42
//
// Gauges export as `gauge`. Histograms export the standard cumulative
// series: one `_bucket{le="<bound>"}` line per bound plus `le="+Inf"`,
// then `_sum` and `_count`. Output is name-ordered (the snapshot already
// is), so identical runs export byte-identical text.
std::string MetricsSnapshotToPrometheusText(const MetricsSnapshot& snapshot);

}  // namespace obs
}  // namespace templex

#endif  // TEMPLEX_OBS_METRICS_H_
