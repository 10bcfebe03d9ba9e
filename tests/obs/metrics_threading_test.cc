// Thread-safety of the obs instruments: counters, gauges, histograms, the
// registry's get-or-create, and the tracer's per-thread buffers, hammered
// from many threads. Totals must come out exact — the daemon's workers
// share one registry — and nothing may tear or crash (the
// CI ThreadSanitizer job runs this binary to catch the races a lucky
// interleaving would hide).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace templex {
namespace obs {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 20000;

void RunOnThreads(int threads, const std::function<void(int)>& body) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) pool.emplace_back(body, t);
  for (std::thread& thread : pool) thread.join();
}

TEST(MetricsThreadingTest, CounterIncrementsAreExact) {
  Counter counter;
  RunOnThreads(kThreads, [&counter](int) {
    for (int i = 0; i < kOpsPerThread; ++i) counter.Increment();
  });
  EXPECT_EQ(counter.value(), int64_t{kThreads} * kOpsPerThread);
}

TEST(MetricsThreadingTest, CounterBulkIncrementsAreExact) {
  Counter counter;
  RunOnThreads(kThreads, [&counter](int t) {
    for (int i = 0; i < kOpsPerThread; ++i) counter.Increment(t + 1);
  });
  int64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) expected += int64_t{t + 1} * kOpsPerThread;
  EXPECT_EQ(counter.value(), expected);
}

TEST(MetricsThreadingTest, GaugeNeverTears) {
  // Writers store one of two full double values; any read must see one of
  // them (a torn read would surface as a third value).
  Gauge gauge;
  gauge.Set(1.0);
  std::atomic<bool> stop{false};
  std::thread reader([&gauge, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const double v = gauge.value();
      ASSERT_TRUE(v == 1.0 || v == -1.0) << v;
    }
  });
  RunOnThreads(kThreads, [&gauge](int t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      gauge.Set((t + i) % 2 == 0 ? 1.0 : -1.0);
    }
  });
  stop.store(true);
  reader.join();
}

TEST(MetricsThreadingTest, HistogramAggregatesExactlyAcrossStripes) {
  Histogram hist({0.5, 1.5, 2.5});
  RunOnThreads(kThreads, [&hist](int) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      hist.Observe(static_cast<double>(i % 4));  // 0,1,2 and overflow 3
    }
  });
  const int64_t total = int64_t{kThreads} * kOpsPerThread;
  EXPECT_EQ(hist.count(), total);
  const std::vector<int64_t> buckets = hist.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  for (int64_t bucket : buckets) EXPECT_EQ(bucket, total / 4);
  EXPECT_EQ(std::accumulate(buckets.begin(), buckets.end(), int64_t{0}),
            total);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 3.0);
  EXPECT_DOUBLE_EQ(hist.sum(), static_cast<double>(total) / 4 * 6);
  // Percentiles stay inside the observed range under concurrent history.
  EXPECT_GE(hist.Percentile(50), 0.0);
  EXPECT_LE(hist.Percentile(99), 3.0);
}

TEST(MetricsThreadingTest, RegistryGetOrCreateRacesToOneInstrument) {
  MetricsRegistry registry;
  std::vector<Counter*> seen(kThreads, nullptr);
  RunOnThreads(kThreads, [&registry, &seen](int t) {
    Counter* counter = registry.counter("race.same_name");
    seen[t] = counter;
    for (int i = 0; i < kOpsPerThread; ++i) counter->Increment();
    registry.histogram("race.hist")->Observe(0.001);
    registry.gauge("race.gauge." + std::to_string(t))->Set(t);
  });
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const CounterSnapshot* counter = snapshot.FindCounter("race.same_name");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, int64_t{kThreads} * kOpsPerThread);
  const HistogramSnapshot* hist = snapshot.FindHistogram("race.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kThreads);
  EXPECT_EQ(snapshot.gauges.size(), static_cast<size_t>(kThreads));
}

TEST(MetricsThreadingTest, SnapshotWhileWritersRun) {
  // Snapshots under live writers must be internally sane (no torn or
  // negative values); exactness is only promised at quiescence.
  MetricsRegistry registry;
  Counter* counter = registry.counter("live.counter");
  Histogram* hist = registry.histogram("live.hist");
  std::atomic<bool> stop{false};
  std::thread snapshotter([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      const CounterSnapshot* c = snapshot.FindCounter("live.counter");
      if (c != nullptr) {
        ASSERT_GE(c->value, 0);
      }
      const HistogramSnapshot* h = snapshot.FindHistogram("live.hist");
      if (h != nullptr) {
        ASSERT_GE(h->count, 0);
        ASSERT_GE(h->sum, 0.0);
      }
    }
  });
  RunOnThreads(kThreads, [counter, hist](int) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      counter->Increment();
      hist->Observe(0.002);
    }
  });
  stop.store(true);
  snapshotter.join();
  EXPECT_EQ(registry.Snapshot().FindHistogram("live.hist")->count,
            int64_t{kThreads} * kOpsPerThread);
}

TEST(TracerThreadingTest, PerThreadBuffersCollectEverySpan) {
  Tracer tracer;
  constexpr int kSpansPerThread = 500;
  RunOnThreads(kThreads, [&tracer](int t) {
    for (int i = 0; i < kSpansPerThread; ++i) {
      Span outer(&tracer, "outer." + std::to_string(t));
      Span inner(&tracer, "inner");
      inner.AddAttribute("i", int64_t{i});
    }
  });
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread * 2);
  // Depth is tracked per thread: inner spans are depth 1, outers depth 0,
  // and each event carries the tid of its recording thread.
  int outer_count = 0;
  for (const TraceEvent& event : events) {
    EXPECT_GE(event.tid, 0);
    EXPECT_LT(event.tid, kThreads);
    if (event.name.rfind("outer.", 0) == 0) {
      EXPECT_EQ(event.depth, 0);
      ++outer_count;
    } else {
      EXPECT_EQ(event.depth, 1);
    }
  }
  EXPECT_EQ(outer_count, kThreads * kSpansPerThread);
}

TEST(TracerThreadingTest, TwoTracersKeepThreadBuffersApart) {
  // The thread-local buffer cache is keyed by tracer identity: a thread
  // alternating between two tracers must not cross-file its spans.
  Tracer a;
  Tracer b;
  RunOnThreads(4, [&a, &b](int) {
    for (int i = 0; i < 200; ++i) {
      { Span span(&a, "a"); }
      { Span span(&b, "b"); }
    }
  });
  for (const TraceEvent& event : a.events()) EXPECT_EQ(event.name, "a");
  for (const TraceEvent& event : b.events()) EXPECT_EQ(event.name, "b");
  EXPECT_EQ(a.events().size(), 800u);
  EXPECT_EQ(b.events().size(), 800u);
}

TEST(TracerThreadingTest, ClearResetsAcrossThreads) {
  Tracer tracer;
  RunOnThreads(4, [&tracer](int) { Span span(&tracer, "x"); });
  ASSERT_EQ(tracer.events().size(), 4u);
  tracer.Clear();
  EXPECT_TRUE(tracer.events().empty());
  RunOnThreads(4, [&tracer](int) { Span span(&tracer, "y"); });
  EXPECT_EQ(tracer.events().size(), 4u);
}

}  // namespace
}  // namespace obs
}  // namespace templex
