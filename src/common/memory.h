#ifndef TEMPLEX_COMMON_MEMORY_H_
#define TEMPLEX_COMMON_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <mutex>

namespace templex {

// Pressure verdicts a MemoryBudget observation can return, ordered by
// severity. kSoft asks the owner to shed accessory state (degradation);
// kHard demands save-and-stop: finish the current unit of work, persist,
// and return kResourceExhausted.
enum class MemoryPressure : int {
  kNone = 0,
  kSoft = 1,
  kHard = 2,
};

// "none" / "soft" / "hard".
const char* MemoryPressureName(MemoryPressure pressure);

// Deterministic, seedable allocation-fault injector — the memory twin of
// FaultInjectingFs (common/fs.h). Instead of wrapping an allocator (global
// operator new hooks would bleed across tests), it injects at the budget's
// observation points: each MemoryBudget::Observe draws one verdict, a pure
// function of (seed, observation index), so a chaos sweep can force a hard
// watermark trip at exactly round N and replay it bit-for-bit.
class FaultInjectingAllocator {
 public:
  struct Options {
    uint64_t seed = 20250808;
    // Report hard pressure on every observation with 0-based index >= this.
    // -1 disables the threshold.
    int64_t hard_after_observations = -1;
    // Probability in [0, 1] that any single observation reports hard
    // pressure (drawn from the seeded stream).
    double hard_rate = 0.0;
  };

  FaultInjectingAllocator() : FaultInjectingAllocator(Options()) {}
  explicit FaultInjectingAllocator(Options options);

  // Draws the next verdict and advances the observation counter. True means
  // the caller must behave as if the hard watermark were crossed.
  bool ShouldFail();

  int64_t observations() const { return observations_; }
  int64_t injected_failures() const { return injected_; }
  const Options& options() const { return options_; }

 private:
  // splitmix64 step: the same generator FaultInjectingFs uses, so fault
  // streams are reproducible across platforms and standard libraries.
  uint64_t NextRandom();

  Options options_;
  uint64_t state_;
  int64_t observations_ = 0;
  int64_t injected_ = 0;
};

// Byte budget with soft/hard watermarks for one long-running computation.
//
// The budget does not hook allocation. Owners account their own content-
// based footprint (string lengths + element sizes — never container
// capacities, so the figure is identical across checkpoint resume) and
// reconcile it at natural boundaries:
//
//   MemoryBudget::Observation obs = budget->Observe(total_bytes);
//
// classifies the footprint against the watermarks (and consults the fault
// injector, when one is attached). Charge/Release support finer-grained
// accounting for owners that track deltas instead of totals.
//
// Thread-safe: the byte counters are atomics; Observe serializes on a
// mutex (the injector draw and the pressure transition must be one step).
class MemoryBudget {
 public:
  struct Options {
    // Soft watermark: at or above this, Observe reports kSoft and the owner
    // should degrade gracefully. 0 disables.
    int64_t soft_limit_bytes = 0;
    // Hard watermark: at or above this, Observe reports kHard and the owner
    // must save-and-stop. 0 disables.
    int64_t hard_limit_bytes = 0;
    // Optional chaos hook; may be null. Must outlive the budget. When its
    // draw fires, the observation reports kHard regardless of the real
    // footprint (Observation::injected distinguishes the two).
    FaultInjectingAllocator* allocator = nullptr;
  };

  MemoryBudget() : MemoryBudget(Options()) {}
  explicit MemoryBudget(Options options);

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  void Charge(int64_t bytes);
  void Release(int64_t bytes);

  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  int64_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }

  struct Observation {
    MemoryPressure pressure = MemoryPressure::kNone;
    // True when this observation raised the pressure level above every
    // previously observed level (none->soft, none->hard, soft->hard).
    bool transitioned = false;
    // True when the verdict came from the fault injector, not the real
    // footprint.
    bool injected = false;
  };

  // Reconciles the account to `total_bytes` (updating the peak) and
  // classifies it against the watermarks. One injector draw per call.
  Observation Observe(int64_t total_bytes);

  // Highest pressure any observation reported so far.
  MemoryPressure pressure() const {
    return static_cast<MemoryPressure>(
        pressure_.load(std::memory_order_relaxed));
  }
  // Upward pressure transitions observed (the chase.memory.pressure_events
  // figure).
  int64_t pressure_events() const {
    return pressure_events_.load(std::memory_order_relaxed);
  }

  const Options& options() const { return options_; }

 private:
  void UpdatePeak(int64_t bytes);

  Options options_;
  std::atomic<int64_t> bytes_{0};
  std::atomic<int64_t> peak_bytes_{0};
  std::atomic<int> pressure_{static_cast<int>(MemoryPressure::kNone)};
  std::atomic<int64_t> pressure_events_{0};
  std::mutex observe_mu_;
};

}  // namespace templex

#endif  // TEMPLEX_COMMON_MEMORY_H_
