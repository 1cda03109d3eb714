// Solver metrics: named per-stage counters and fixed-bucket duration
// histograms, aggregated per synthesis operation into a SolveMetrics struct
// that rides on OptimizeResult next to OptimizeStats.
//
// Collection model. The engine binds a thread-local SolveMetrics sink for
// each worker (MetricsBinding); instrumentation sites anywhere below it —
// the dispatch loop, the CSP, the cache, the validator — record through
// record_stage()/StageTimer without any API plumbing. An unbound thread
// (metrics collection off, or a CSP subtree-split pool lane) pays one
// thread-local load + branch per site and records nothing, so the disabled
// path stays in the noise. Workers merge their local sinks into the shared
// per-operation struct under the engine's commit lock, which keeps the
// whole thing TSan-clean without hot-path atomics.
//
// Determinism. Metrics only observe; no control flow reads them. Results
// are bit-identical with collection on or off, at any thread count —
// enforced by tests/obs_test.cpp. Durations (and therefore histograms and
// totals) legitimately vary run to run; counts of deterministic events
// (prunes, probes, validations) do not at a fixed thread count.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace ht::obs {

/// The solver pipeline's stages, one histogram each. Kept in sync with
/// stage_name() and the metric catalog in DESIGN.md.
enum class Stage {
  kEnumeration = 0,  ///< license-set enumeration + queue construction
  kScreen,           ///< static feasibility screens, per license set
  kCacheProbe,       ///< dominance-cache frozen-tier lookups
  kBoundsRefute,     ///< per-palette branch-and-bound floor checks
  kLpBound,          ///< no longer recorded; kept for the benchmark's build
  kCspDispatch,      ///< full license-set evaluation (greedy + CSP)
  kNogoodPropagation,  ///< nogood blocking checks inside the CSP
  kValidation,       ///< solution validation before commit
  kSlsSearch,        ///< portfolio SLS member (decimation + descent)
};
inline constexpr int kNumStages = 9;

const char* stage_name(Stage stage);

/// Why a license set was skipped without CSP dispatch. kBound is the
/// combinatorial cost floor / per-palette floors.
enum class PruneReason { kScreen = 0, kCache, kBound };
inline constexpr int kNumPruneReasons = 3;

const char* prune_reason_name(PruneReason reason);

/// Histogram buckets by duration: <1us, <10us, <100us, <1ms, <10ms,
/// <100ms, <1s, >=1s.
inline constexpr int kNumBuckets = 8;
int bucket_of(long long ns);

struct StageStats {
  long long count = 0;
  long long total_ns = 0;
  std::array<long long, kNumBuckets> buckets{};

  /// Records one timed sample covering `n` underlying events (n > 1 for
  /// per-solve aggregates like nogood propagation).
  void add(long long ns, long long n = 1);
  void merge(const StageStats& other);
  bool operator==(const StageStats&) const = default;
};

struct SolveMetrics {
  std::array<StageStats, kNumStages> stages{};
  std::array<long long, kNumPruneReasons> prunes{};

  StageStats& stage(Stage s) { return stages[static_cast<std::size_t>(s)]; }
  const StageStats& stage(Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  long long prune(PruneReason r) const {
    return prunes[static_cast<std::size_t>(r)];
  }
  void add_prune(PruneReason r, long long n = 1) {
    prunes[static_cast<std::size_t>(r)] += n;
  }

  bool empty() const;
  void reset() { *this = SolveMetrics{}; }
  void merge(const SolveMetrics& other);
  bool operator==(const SolveMetrics&) const = default;
};

/// Stable JSON serialization:
/// {"stages": {"screen": {"count": N, "total_ns": N, "buckets": [8 x N]},
///  ...}, "prunes": {"screen": N, "cache": N, "bound": N}}
std::string to_json(const SolveMetrics& metrics);

/// Parses the to_json() format (unknown keys tolerated). Returns false on
/// malformed input; `out` is untouched on failure.
bool parse_metrics_json(const std::string& text, SolveMetrics* out);

/// The calling thread's bound sink, or nullptr (collection off).
SolveMetrics* bound_metrics();

/// Scoped thread-local sink binding. Nestable: restores the previous
/// binding on destruction. Pass nullptr to record nothing in the scope.
class MetricsBinding {
 public:
  explicit MetricsBinding(SolveMetrics* sink);
  ~MetricsBinding();
  MetricsBinding(const MetricsBinding&) = delete;
  MetricsBinding& operator=(const MetricsBinding&) = delete;

 private:
  SolveMetrics* previous_;
};

/// Records into the bound sink; no-op when unbound.
void record_stage(Stage stage, long long ns, long long count = 1);
void record_prune(PruneReason reason, long long count = 1);

std::int64_t metrics_now_ns();

/// RAII stage timer. Unbound: one thread-local load + branch, no clock
/// reads.
class StageTimer {
 public:
  explicit StageTimer(Stage stage) : sink_(bound_metrics()), stage_(stage) {
    if (sink_ != nullptr) start_ns_ = metrics_now_ns();
  }
  ~StageTimer();
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  SolveMetrics* sink_;
  Stage stage_;
  std::int64_t start_ns_ = 0;
};

}  // namespace ht::obs
