// Tests for the observability subsystem (src/obs) and its engine plumbing.
//
// The load-bearing property is that observation never steers: tracing and
// metrics collection on vs off must leave statuses, costs and bindings
// bit-identical at every thread count. The unit half covers the trace
// merge discipline (balanced per-thread spans, deterministic global order)
// and the SolveMetrics arithmetic + JSON round-trip; the engine half runs
// a prune-heavy spec and checks the prune-reason accounting against
// OptimizeStats and the forced progress publication on prune-only streaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "benchmarks/suite.hpp"
#include "core/engine.hpp"
#include "dfg/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"
#include "vendor/catalogs.hpp"

namespace ht::obs {
namespace {

// ---------------------------------------------------------------------------
// Metrics arithmetic

TEST(MetricsTest, BucketOfLogDecadeBoundaries) {
  EXPECT_EQ(bucket_of(0), 0);
  EXPECT_EQ(bucket_of(999), 0);                  // < 1us
  EXPECT_EQ(bucket_of(1'000), 1);                // < 10us
  EXPECT_EQ(bucket_of(9'999), 1);
  EXPECT_EQ(bucket_of(10'000), 2);               // < 100us
  EXPECT_EQ(bucket_of(100'000), 3);              // < 1ms
  EXPECT_EQ(bucket_of(1'000'000), 4);            // < 10ms
  EXPECT_EQ(bucket_of(10'000'000), 5);           // < 100ms
  EXPECT_EQ(bucket_of(100'000'000), 6);          // < 1s
  EXPECT_EQ(bucket_of(999'999'999), 6);
  EXPECT_EQ(bucket_of(1'000'000'000), 7);        // >= 1s
  EXPECT_EQ(bucket_of(5'000'000'000LL), 7);
}

TEST(MetricsTest, StageStatsAddAndMerge) {
  StageStats a;
  a.add(500);            // bucket 0
  a.add(2'000'000, 10);  // bucket 4, ten underlying events, one sample
  EXPECT_EQ(a.count, 11);
  EXPECT_EQ(a.total_ns, 2'000'500);
  EXPECT_EQ(a.buckets[0], 1);
  EXPECT_EQ(a.buckets[4], 1);

  StageStats b;
  b.add(500);
  b.merge(a);
  EXPECT_EQ(b.count, 12);
  EXPECT_EQ(b.total_ns, 2'001'000);
  EXPECT_EQ(b.buckets[0], 2);
  EXPECT_EQ(b.buckets[4], 1);
}

TEST(MetricsTest, SolveMetricsEmptyResetMerge) {
  SolveMetrics m;
  EXPECT_TRUE(m.empty());
  m.add_prune(PruneReason::kScreen);
  EXPECT_FALSE(m.empty());
  m.stage(Stage::kScreen).add(42);

  SolveMetrics other;
  other.add_prune(PruneReason::kScreen, 2);
  other.stage(Stage::kCspDispatch).add(1'234);
  m.merge(other);
  EXPECT_EQ(m.prune(PruneReason::kScreen), 3);
  EXPECT_EQ(m.stage(Stage::kScreen).count, 1);
  EXPECT_EQ(m.stage(Stage::kCspDispatch).count, 1);

  m.reset();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m, SolveMetrics{});
}

TEST(MetricsTest, JsonRoundTripIsLossless) {
  SolveMetrics m;
  for (int s = 0; s < kNumStages; ++s) {
    m.stages[s].add(1'000LL * (s + 1) * (s + 1), s + 1);
  }
  m.add_prune(PruneReason::kScreen, 7);
  m.add_prune(PruneReason::kCache, 3);
  m.add_prune(PruneReason::kBound, 11);

  const std::string json = to_json(m);
  SolveMetrics parsed;
  ASSERT_TRUE(parse_metrics_json(json, &parsed)) << json;
  EXPECT_EQ(parsed, m);
  // Stable serialization: a round-tripped struct serializes identically.
  EXPECT_EQ(to_json(parsed), json);
}

TEST(MetricsTest, ParseRejectsMalformedAndLeavesOutputUntouched) {
  SolveMetrics sentinel;
  sentinel.add_prune(PruneReason::kBound, 99);
  const SolveMetrics before = sentinel;
  for (const char* bad :
       {"", "not json", "[1,2,3]", "{\"stages\": 5}",
        "{\"stages\": {\"screen\": {\"count\": \"x\"}}}"}) {
    EXPECT_FALSE(parse_metrics_json(bad, &sentinel)) << bad;
    EXPECT_EQ(sentinel, before) << bad;
  }
}

TEST(MetricsTest, RecordingIsNoOpWhenUnbound) {
  ASSERT_EQ(bound_metrics(), nullptr);
  record_stage(Stage::kScreen, 1'000);  // must not crash, must not record
  record_prune(PruneReason::kCache);
  { StageTimer timer(Stage::kValidation); }
  EXPECT_EQ(bound_metrics(), nullptr);
}

TEST(MetricsTest, BindingNestsAndRestores) {
  SolveMetrics outer_sink;
  SolveMetrics inner_sink;
  {
    MetricsBinding outer(&outer_sink);
    ASSERT_EQ(bound_metrics(), &outer_sink);
    record_prune(PruneReason::kScreen);
    {
      MetricsBinding inner(&inner_sink);
      ASSERT_EQ(bound_metrics(), &inner_sink);
      record_prune(PruneReason::kScreen);
      record_stage(Stage::kCspDispatch, 5'000);
    }
    ASSERT_EQ(bound_metrics(), &outer_sink);
    record_prune(PruneReason::kCache);
    {
      MetricsBinding off(nullptr);
      ASSERT_EQ(bound_metrics(), nullptr);
      record_prune(PruneReason::kBound);  // dropped
    }
  }
  EXPECT_EQ(bound_metrics(), nullptr);
  EXPECT_EQ(outer_sink.prune(PruneReason::kScreen), 1);
  EXPECT_EQ(outer_sink.prune(PruneReason::kCache), 1);
  EXPECT_EQ(outer_sink.prune(PruneReason::kBound), 0);
  EXPECT_EQ(inner_sink.prune(PruneReason::kScreen), 1);
  EXPECT_EQ(inner_sink.stage(Stage::kCspDispatch).count, 1);
  EXPECT_EQ(inner_sink.stage(Stage::kCspDispatch).total_ns, 5'000);
}

// ---------------------------------------------------------------------------
// Tracing

TEST(TraceTest, DisabledPathRecordsNothing) {
  ASSERT_FALSE(tracing_enabled());
  {
    HT_TRACE_SPAN("test/never");
    trace_instant("test/never_i", "k", 1LL);
  }
  const TraceLog log = stop_tracing();  // no capture open: empty, idempotent
  EXPECT_TRUE(log.events.empty());
  EXPECT_EQ(log.dropped, 0u);
}

TEST(TraceTest, SpanFlagSampledAtConstructionKeepsTraceBalanced) {
  start_tracing();
  {
    HT_TRACE_SPAN("test/straddle");
    // The capture closes while the span is open on *this* thread — which
    // is legal for a test-owned span (the engine never does this). The
    // span recorded its begin, so its end must still land... in the next
    // session's buffer, where it is discarded as stale. Either way no
    // crash and the closed log holds the unmatched begin.
    const TraceLog log = stop_tracing();
    ASSERT_EQ(log.events.size(), 1u);
    EXPECT_EQ(log.events[0].phase, 'B');
  }
  // The dangling end landed while tracing was off / in no session;
  // a fresh capture must not see it.
  start_tracing();
  const TraceLog fresh = stop_tracing();
  EXPECT_TRUE(fresh.events.empty());
}

TEST(TraceTest, MultiThreadMergeIsBalancedAndDeterministicallyOrdered) {
  constexpr int kThreads = 4;
  constexpr int kIters = 50;
  start_tracing();
  {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([] {
        for (int i = 0; i < kIters; ++i) {
          HT_TRACE_SPAN("test/outer");
          {
            HT_TRACE_SPAN("test/inner", "i", i);
            trace_instant("test/tick", "i", static_cast<long long>(i));
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const TraceLog log = stop_tracing();
  EXPECT_EQ(log.dropped, 0u);
  // 2 spans (B+E each) + 1 instant per iteration per thread.
  ASSERT_EQ(log.events.size(),
            static_cast<std::size_t>(kThreads) * kIters * 5);

  // Per-thread: sequence numbers strictly increase, spans nest and close.
  std::map<std::uint32_t, std::uint64_t> last_seq;
  std::map<std::uint32_t, std::uint64_t> last_ts;
  std::map<std::uint32_t, std::vector<const char*>> stacks;
  for (const TraceEvent& event : log.events) {
    auto seq_it = last_seq.find(event.tid);
    if (seq_it != last_seq.end()) {
      EXPECT_GT(event.seq, seq_it->second);
      EXPECT_GE(event.ts_ns, last_ts[event.tid]);
    }
    last_seq[event.tid] = event.seq;
    last_ts[event.tid] = event.ts_ns;
    auto& stack = stacks[event.tid];
    if (event.phase == 'B') {
      stack.push_back(event.name);
    } else if (event.phase == 'E') {
      ASSERT_FALSE(stack.empty());
      EXPECT_STREQ(stack.back(), event.name);
      stack.pop_back();
    }
  }
  EXPECT_EQ(stacks.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "tid " << tid << " left spans open";
  }

  // Global order is the deterministic merge key (ts, tid, seq).
  const bool sorted = std::is_sorted(
      log.events.begin(), log.events.end(),
      [](const TraceEvent& a, const TraceEvent& b) {
        if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
        if (a.tid != b.tid) return a.tid < b.tid;
        return a.seq < b.seq;
      });
  EXPECT_TRUE(sorted);

  // Payloads survive the merge: every inner begin and tick carries i.
  long long ticks = 0;
  for (const TraceEvent& event : log.events) {
    if (event.phase != 'i') continue;
    ++ticks;
    ASSERT_EQ(event.num_args, 1);
    EXPECT_STREQ(event.args[0].key, "i");
  }
  EXPECT_EQ(ticks, static_cast<long long>(kThreads) * kIters);
}

TEST(TraceTest, ChromeExportIsWellFormedJson) {
  start_tracing();
  {
    HT_TRACE_SPAN("test/export", "combo", 7);
    trace_instant("test/evt", "status", std::string("feasible"), "combo", 7);
  }
  const TraceLog log = stop_tracing();
  ASSERT_EQ(log.events.size(), 3u);

  std::ostringstream out;
  write_chrome_trace(log, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"test/export\""), std::string::npos);
  EXPECT_NE(json.find("\"combo\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"feasible\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser
  // (tools/check_trace_json.py does the full validation in CI).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

}  // namespace
}  // namespace ht::obs

namespace ht::core {
namespace {

/// The bench's "polynom tight" shape: Section 5 catalog, latency bounds at
/// the critical path, one instance per offer. Thousands of license sets
/// are refuted by screens and cost floors before the winner dispatches —
/// exactly the prune-heavy search the accounting tests need.
ProblemSpec tight_polynom_spec() {
  ProblemSpec spec;
  spec.graph = benchmarks::by_name("polynom").factory();
  spec.catalog = vendor::section5();
  const int critical_path =
      dfg::critical_path_length(spec.graph, spec.op_latencies());
  spec.lambda_detection = critical_path;
  spec.lambda_recovery = critical_path;
  spec.with_recovery = true;
  spec.area_limit = 400000;
  spec.max_instances_per_offer = 1;
  return spec;
}

SynthesisRequest tight_request(int threads) {
  SynthesisRequest request;
  request.spec = tight_polynom_spec();
  request.strategy = Strategy::kHeuristic;
  request.limits.heuristic_restarts = 3;
  request.limits.heuristic_node_limit = 80'000;
  request.limits.max_combos = 5'000;
  request.limits.time_limit_seconds = 600;  // never the binding limit
  request.parallelism.threads = threads;
  return request;
}

void expect_identical(const OptimizeResult& a, const OptimizeResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.status, b.status) << label;
  if (!a.has_solution()) return;
  EXPECT_EQ(a.cost, b.cost) << label;
  ASSERT_EQ(a.solution.num_ops(), b.solution.num_ops()) << label;
  for (CopyKind kind : a.solution.active_kinds()) {
    for (dfg::OpId op = 0; op < a.solution.num_ops(); ++op) {
      EXPECT_EQ(a.solution.at(kind, op), b.solution.at(kind, op))
          << label << " " << copy_kind_name(kind) << " op " << op;
    }
  }
}

TEST(ObsEngineTest, MetricsAndTracingNeverChangeResults) {
  for (int threads : {1, 4, 8}) {
    const std::string label = "threads=" + std::to_string(threads);

    SynthesisRequest plain = tight_request(threads);
    SynthesisEngine baseline_engine(plain);
    const OptimizeResult baseline = baseline_engine.minimize();

    SynthesisRequest observed = tight_request(threads);
    observed.observability.metrics = true;
    SynthesisEngine observed_engine(observed);
    obs::start_tracing();
    const OptimizeResult traced = observed_engine.minimize();
    const obs::TraceLog log = obs::stop_tracing();

    expect_identical(baseline, traced, label);
    EXPECT_FALSE(traced.metrics.empty()) << label;
    EXPECT_TRUE(baseline.metrics.empty()) << label;
    EXPECT_FALSE(log.events.empty()) << label;
  }
}

TEST(ObsEngineTest, PruneReasonAccountingMatchesOptimizeStats) {
  SynthesisRequest request = tight_request(1);
  request.observability.metrics = true;
  SynthesisEngine engine(request);
  const OptimizeResult result = engine.minimize();

  ASSERT_EQ(result.status, OptStatus::kOptimal);
  const obs::SolveMetrics& m = result.metrics;
  // Every skip-counter increment site records a prune reason under the
  // same lock, so the reason split must tile the stats exactly.
  EXPECT_EQ(m.prune(obs::PruneReason::kScreen),
            result.stats.combos_skipped_screen);
  EXPECT_EQ(m.prune(obs::PruneReason::kCache),
            result.stats.combos_skipped_cache);
  EXPECT_EQ(m.prune(obs::PruneReason::kBound), result.stats.lb_prunes);
  // The tight spec's point: a real prune-heavy search.
  EXPECT_GT(result.stats.combos_skipped_screen + result.stats.lb_prunes,
            kPruneProgressInterval);
  // Dispatch and enumeration stages saw real work. Dispatch may exceed
  // combos_tried: the full-market incumbent probe evaluates through the
  // same instrumented path without consuming the combo window.
  EXPECT_GE(m.stage(obs::Stage::kCspDispatch).count,
            result.stats.combos_tried);
  EXPECT_GT(m.stage(obs::Stage::kCspDispatch).count, 0);
  EXPECT_EQ(m.stage(obs::Stage::kEnumeration).count, 1);
  EXPECT_GT(m.stage(obs::Stage::kValidation).count, 0);
}

TEST(ObsEngineTest, ProgressPublishesOnPruneOnlyStreaks) {
  SynthesisRequest request = tight_request(1);
  request.observability.metrics = true;
  std::vector<SynthesisProgress> snapshots;
  request.progress = [&](const SynthesisProgress& progress) {
    snapshots.push_back(progress);
  };
  SynthesisEngine engine(request);
  const OptimizeResult result = engine.minimize();
  ASSERT_EQ(result.status, OptStatus::kOptimal);

  // The tight spec refutes thousands of cheaper sets before its single
  // dispatch, so without the forced publication the callback would fire
  // only at the commit. The streak rule must have fired earlier: at least
  // one snapshot with zero dispatches and a full interval of skips.
  ASSERT_GE(snapshots.size(), 2u);
  bool saw_forced = false;
  long last_tried = 0;
  for (const SynthesisProgress& progress : snapshots) {
    EXPECT_GE(progress.combos_tried, last_tried);  // monotone
    last_tried = progress.combos_tried;
    const long skipped = progress.combos_skipped_screen +
                         progress.combos_skipped_cache + progress.lb_prunes;
    if (progress.combos_tried == 0 && skipped >= kPruneProgressInterval) {
      saw_forced = true;
      EXPECT_FALSE(progress.have_incumbent);
      // Live metrics ride on the snapshot when the request asks for them.
      EXPECT_FALSE(progress.metrics.empty());
      EXPECT_EQ(progress.metrics.prune(obs::PruneReason::kScreen),
                progress.combos_skipped_screen);
    }
  }
  EXPECT_TRUE(saw_forced);

  // The last snapshot agrees with the final stats.
  const SynthesisProgress& last = snapshots.back();
  EXPECT_EQ(last.combos_tried, result.stats.combos_tried);
  EXPECT_EQ(last.combos_skipped_screen, result.stats.combos_skipped_screen);
  EXPECT_EQ(last.lb_prunes, result.stats.lb_prunes);
  EXPECT_TRUE(last.have_incumbent);
  EXPECT_EQ(last.incumbent_cost, result.cost);
}

TEST(ObsEngineTest, EasySpecDispatchesWithoutForcedPublications) {
  // The motivational spec dispatches its first set successfully: progress
  // arrives once per evaluated set, never from the streak rule.
  SynthesisRequest request;
  request.spec = test::motivational_spec();
  std::vector<SynthesisProgress> snapshots;
  request.progress = [&](const SynthesisProgress& progress) {
    snapshots.push_back(progress);
  };
  SynthesisEngine engine(request);
  const OptimizeResult result = engine.minimize();
  ASSERT_EQ(result.status, OptStatus::kOptimal);
  ASSERT_FALSE(snapshots.empty());
  for (const SynthesisProgress& progress : snapshots) {
    EXPECT_GT(progress.combos_tried, 0);
    // Metrics were not requested: the snapshot's breakdown stays zero.
    EXPECT_TRUE(progress.metrics.empty());
  }
}

}  // namespace
}  // namespace ht::core

// ---------------------------------------------------------------------------
// Request-lifecycle observability: correlation, journal, flight recorder,
// percentile windows, and the Prometheus exposition builder.

#include <cstdio>
#include <fstream>

#include "obs/flight_recorder.hpp"
#include "obs/journal.hpp"
#include "obs/telemetry.hpp"
#include "service/wire.hpp"

namespace ht::obs {
namespace {

TEST(TraceTest, CorrelationScopeStampsReqOnEveryEvent) {
  start_tracing();
  {
    CorrelationScope correlation(77);
    EXPECT_EQ(correlation_id(), 77u);
    HT_TRACE_SPAN("test/correlated");
    {
      CorrelationScope nested(78);
      trace_instant("test/nested");
    }
    // RAII restore: back to the outer id after the nested scope.
    EXPECT_EQ(correlation_id(), 77u);
  }
  EXPECT_EQ(correlation_id(), 0u);
  trace_instant("test/uncorrelated");
  const TraceLog log = stop_tracing();
  ASSERT_EQ(log.events.size(), 4u);

  std::ostringstream out;
  write_chrome_trace(log, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"req\": 77"), std::string::npos);
  EXPECT_NE(json.find("\"req\": 78"), std::string::npos);
  // The uncorrelated instant must not carry a req arg at all.
  EXPECT_EQ(json.find("\"req\": 0"), std::string::npos);
}

TEST(PercentileWindowTest, RetainsLargestWhenSaturated) {
  PercentileWindow window(4);
  for (int i = 1; i <= 10; ++i) window.push(static_cast<double>(i));
  EXPECT_EQ(window.size(), 4u);
  EXPECT_EQ(window.pushed(), 10);
  EXPECT_EQ(window.sorted_samples(),
            (std::vector<double>{7.0, 8.0, 9.0, 10.0}));
  EXPECT_EQ(window.max(), 10.0);
  EXPECT_EQ(window.quantile(1.0), 10.0);
}

TEST(PercentileWindowTest, MergeIsOrderAndPartitionInvariantAcrossThreads) {
  // A fixed pseudo-random sample set (no wall clock, no RNG state): the
  // reference window sees everything sequentially; four thread-local
  // windows each see a strided partition and are merged in two different
  // orders. All three must retain the identical multiset.
  std::vector<double> samples;
  samples.reserve(997);
  for (std::uint64_t i = 0; i < 997; ++i) {
    samples.push_back(
        static_cast<double>((i * 2654435761ULL) % 100003ULL) / 1000.0);
  }
  PercentileWindow reference(64);
  for (const double sample : samples) reference.push(sample);

  std::vector<PercentileWindow> locals(4, PercentileWindow(64));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < samples.size();
           i += 4) {
        locals[static_cast<std::size_t>(t)].push(samples[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  PercentileWindow forward(64);
  for (int t = 0; t < 4; ++t) {
    forward.merge(locals[static_cast<std::size_t>(t)]);
  }
  PercentileWindow backward(64);
  for (int t = 3; t >= 0; --t) {
    backward.merge(locals[static_cast<std::size_t>(t)]);
  }
  EXPECT_EQ(forward.sorted_samples(), reference.sorted_samples());
  EXPECT_EQ(backward.sorted_samples(), reference.sorted_samples());
  EXPECT_EQ(forward.pushed(), reference.pushed());
  EXPECT_EQ(backward.pushed(), reference.pushed());
  EXPECT_EQ(forward.quantile(0.95), reference.quantile(0.95));
}

TEST(JournalTest, LineSerializationParsesBackWithAllFields) {
  JournalEvent event;
  event.type = "end";
  event.req = 42;
  event.market = 0x00c0ffee;
  event.id = "job \"quoted\"";
  event.status = "optimal";
  event.queue_s = 0.25;
  event.solve_s = 1.5;
  event.cost = 1234;
  event.nodes = 5678;
  event.snapshot_version = 3;
  const std::string line = journal_line(event, 9, 1700000000123LL);

  service::Json parsed;
  std::string error;
  ASSERT_TRUE(service::Json::parse(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.get("journal_version").as_int(), kJournalVersion);
  EXPECT_EQ(parsed.get("seq").as_int(), 9);
  EXPECT_EQ(parsed.get("ts_ms").as_int(), 1700000000123LL);
  EXPECT_EQ(parsed.get("event").as_string(), "end");
  EXPECT_EQ(parsed.get("req").as_int(), 42);
  EXPECT_EQ(parsed.get("market").as_string(), "0x0000000000c0ffee");
  EXPECT_EQ(parsed.get("id").as_string(), "job \"quoted\"");
  EXPECT_EQ(parsed.get("status").as_string(), "optimal");
  EXPECT_DOUBLE_EQ(parsed.get("queue_s").as_double(), 0.25);
  EXPECT_DOUBLE_EQ(parsed.get("solve_s").as_double(), 1.5);
  EXPECT_EQ(parsed.get("cost").as_int(), 1234);
  EXPECT_EQ(parsed.get("nodes").as_int(), 5678);
  EXPECT_EQ(parsed.get("snapshot_version").as_int(), 3);

  // Optional fields stay absent when unset, so readers can rely on
  // presence = meaningful.
  JournalEvent bare;
  bare.type = "admit";
  bare.req = 1;
  const std::string bare_line = journal_line(bare, 1, 0);
  ASSERT_TRUE(service::Json::parse(bare_line, &parsed, &error)) << error;
  EXPECT_FALSE(parsed.has("market"));
  EXPECT_FALSE(parsed.has("cost"));
  EXPECT_FALSE(parsed.has("queue_s"));
}

TEST(JournalTest, WritesWholeLinesWithStrictlyIncreasingSeq) {
  const std::string path =
      ::testing::TempDir() + "ht_obs_journal_test.jsonl";
  std::remove(path.c_str());
  {
    std::string error;
    auto journal = RequestJournal::open(path, &error);
    ASSERT_NE(journal, nullptr) << error;
    for (std::uint64_t req = 1; req <= 3; ++req) {
      JournalEvent admit;
      admit.type = "admit";
      admit.req = req;
      journal->append(admit);
      JournalEvent start;
      start.type = "solve_start";
      start.req = req;
      journal->append(start);
      JournalEvent end;
      end.type = "end";
      end.req = req;
      end.status = "optimal";
      journal->append(end);
    }
    journal->flush();
    const JournalCounters counters = journal->counters();
    EXPECT_EQ(counters.appended, 9);
    EXPECT_EQ(counters.written, 9);
    EXPECT_EQ(counters.dropped, 0);
  }  // destructor joins the writer; the file is complete

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  long long last_seq = -1;
  std::map<long long, int> admits;
  std::map<long long, int> ends;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    service::Json parsed;
    std::string error;
    ASSERT_TRUE(service::Json::parse(line, &parsed, &error))
        << line << ": " << error;
    const long long seq = parsed.get("seq").as_int(-1);
    EXPECT_GT(seq, last_seq) << "seq must be strictly increasing";
    last_seq = seq;
    const long long req = parsed.get("req").as_int(0);
    const std::string type = parsed.get("event").as_string();
    if (type == "admit") ++admits[req];
    if (type == "end") ++ends[req];
  }
  EXPECT_EQ(lines, 9);
  for (long long req = 1; req <= 3; ++req) {
    EXPECT_EQ(admits[req], 1) << "req " << req;
    EXPECT_EQ(ends[req], 1) << "req " << req;
  }
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, ThresholdIsComputedBeforeTheJudgedSample) {
  FlightRecorderConfig config;
  config.min_samples = 4;
  config.anomaly_factor = 2.0;
  config.min_anomaly_seconds = 0.001;
  FlightRecorder recorder(config);
  EXPECT_LT(recorder.latency_threshold(), 0.0);  // not enough samples
  for (int i = 0; i < 4; ++i) {
    recorder.note_reply(static_cast<std::uint64_t>(i + 1), 0.01, false,
                        false);
  }
  // p95 of four 0.01s samples is 0.01; threshold = 2 x 0.01.
  EXPECT_DOUBLE_EQ(recorder.latency_threshold(), 0.02);
  EXPECT_EQ(recorder.dumps_written(), 0);
}

TEST(FlightRecorderTest, AnomalyDumpHoldsOnlyCorrelatedSpansAcrossLanes) {
  FlightRecorderConfig config;
  config.dump_dir = ::testing::TempDir() + "ht_obs_flight_test";
  config.ring_capacity = 8;
  FlightRecorder recorder(config);

  const std::uint64_t base = recorder.now_ns();
  recorder.record(0, {"svc/queue", 42, base, base + 1000});
  recorder.record(0, {"svc/solve", 42, base + 1000, base + 5000});
  recorder.record(1, {"svc/solve", 7, base, base + 2000});  // other request
  recorder.record(1, {"svc/merge", 42, base + 5000, base + 6000});

  ASSERT_EQ(recorder.correlated(42).size(), 3u);
  // expired forces the anomaly path regardless of latency history.
  const std::string path = recorder.note_reply(42, 0.001, true, false);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(recorder.dumps_written(), 1);
  EXPECT_NE(path.find("req-42.trace.json"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  service::Json parsed;
  std::string error;
  ASSERT_TRUE(service::Json::parse(buffer.str(), &parsed, &error)) << error;
  const service::Json& events = parsed.get("traceEvents");
  ASSERT_EQ(events.size(), 3u);
  for (const service::Json& event : events.items()) {
    EXPECT_EQ(event.get("ph").as_string(), "X");
    EXPECT_EQ(event.get("args").get("req").as_int(), 42);
    EXPECT_GE(event.get("dur").as_double(-1.0), 0.0);
  }
  std::remove(path.c_str());
}

TEST(PrometheusTextTest, HistogramBucketsAreCumulativeAndCountMatchesInf) {
  StageStats stats;
  stats.add(500);          // <1us
  stats.add(50'000);       // <100us
  stats.add(2'000'000'000);  // >=1s
  PrometheusText prom;
  prom.histogram("test_seconds", "help text", stats);
  const std::string body = prom.str();
  EXPECT_NE(body.find("# TYPE test_seconds histogram"), std::string::npos);
  EXPECT_NE(body.find("test_seconds_bucket{le=\"1e-06\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("test_seconds_bucket{le=\"0.0001\"} 2"),
            std::string::npos);
  EXPECT_NE(body.find("test_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(body.find("test_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(body.find("test_seconds_count 3"), std::string::npos);
}

TEST(PrometheusTextTest, RepeatedLabeledSeriesShareOneHeader) {
  PrometheusText prom;
  prom.counter("x_total", "help", 1.0, "market=\"a\"");
  prom.counter("x_total", "help", 2.0, "market=\"b\"");
  const std::string body = prom.str();
  std::size_t headers = 0;
  for (std::size_t pos = body.find("# TYPE x_total");
       pos != std::string::npos;
       pos = body.find("# TYPE x_total", pos + 1)) {
    ++headers;
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_NE(body.find("x_total{market=\"a\"} 1"), std::string::npos);
  EXPECT_NE(body.find("x_total{market=\"b\"} 2"), std::string::npos);
}

}  // namespace
}  // namespace ht::obs
