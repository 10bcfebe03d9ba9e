#ifndef TEMPLEX_OBS_TRACE_H_
#define TEMPLEX_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"

namespace templex {
namespace obs {

// One completed span, ready for Chrome trace-event export ("X" complete
// events: chrome://tracing or https://ui.perfetto.dev both load the JSON
// array TraceEventsToJson produces). Timestamps are microseconds relative
// to the owning Tracer's epoch.
struct TraceEvent {
  std::string name;
  double ts_micros = 0.0;
  double dur_micros = 0.0;
  // Nesting depth on the recording thread when the span opened (0 = top
  // level). Chrome infers nesting from ts/dur containment; the depth is
  // kept for assertions and non-visual consumers.
  int depth = 0;
  // Recording thread: 0 is the first thread that opened a span on this
  // tracer (the run's main thread), workers follow in first-span order.
  // Exported as the Chrome trace "tid", so concurrent threads render as
  // parallel tracks.
  int tid = 0;
  std::vector<std::pair<std::string, std::string>> attributes;
};

// Collects spans for one run. Like MetricsRegistry, a Tracer* threaded
// through instrumented code may be null: Span construction against a null
// tracer is a no-op (one branch, no clock read).
//
// Thread-safe via per-thread buffers: each thread's spans append to a
// buffer registered for that thread on first use (one mutex acquisition
// per thread per tracer, then lock-free appends), and events() merges the
// buffers at export. Span open/close must happen on the same thread;
// nesting depth is tracked per thread.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Microseconds since the tracer was created.
  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  // Merged copy of every thread's buffer: buffers in thread-registration
  // order (tid order), each buffer's events in span-close order — so for a
  // single-threaded run children precede their parents. Chrome orders by
  // ts either way. Must not race with open spans closing; call it after
  // joining / quiescing workers.
  std::vector<TraceEvent> events() const;
  void Clear();

  // Span bookkeeping (public for Span; not meant for direct use). Both
  // touch only the calling thread's buffer.
  int OpenSpan();
  void CloseSpan(TraceEvent event);

 private:
  struct ThreadBuffer {
    int tid = 0;
    int depth = 0;
    std::vector<TraceEvent> events;
  };

  // The calling thread's buffer, registered on first use.
  ThreadBuffer* LocalBuffer();

  const uint64_t id_;  // process-unique, never reused — keys the TLS cache
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards buffers_ registration and export
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

// RAII timed span: opens at construction, records a TraceEvent into the
// tracer when destroyed (or End()-ed explicitly). The duration comes from a
// ScopedTimer accumulating into the span's own cell, reusing the same
// primitive the per-phase metrics use. Construct and destroy on the same
// thread (worker spans live inside their task).
//
//   obs::Span round(tracer, "chase.round");   // tracer may be null
//   round.AddAttribute("round", round_number);
class Span {
 public:
  Span(Tracer* tracer, std::string name)
      : tracer_(tracer), timer_(&elapsed_seconds_) {
    if (tracer_ == nullptr) return;
    event_.name = std::move(name);
    event_.ts_micros = tracer_->NowMicros();
    event_.depth = tracer_->OpenSpan();
  }

  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span& AddAttribute(const std::string& key, std::string value) {
    if (tracer_ != nullptr && !ended_) {
      event_.attributes.emplace_back(key, std::move(value));
    }
    return *this;
  }
  Span& AddAttribute(const std::string& key, int64_t value) {
    return AddAttribute(key, std::to_string(value));
  }

  // Closes the span early; idempotent.
  void End() {
    if (tracer_ == nullptr || ended_) return;
    ended_ = true;
    timer_.Stop();
    event_.dur_micros = elapsed_seconds_ * 1e6;
    tracer_->CloseSpan(std::move(event_));
  }

 private:
  Tracer* tracer_;
  TraceEvent event_;
  double elapsed_seconds_ = 0.0;
  ScopedTimer timer_;
  bool ended_ = false;
};

}  // namespace obs
}  // namespace templex

#endif  // TEMPLEX_OBS_TRACE_H_
