#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <optional>
#include <thread>

#include "core/validate.hpp"
#include "host.hpp"
#include "obs/journal.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace ht;
using Clock = std::chrono::steady_clock;

constexpr int kClients = 4;        // closed-loop connections, <= nproc
constexpr int kServeWorkers = 4;   // service worker threads
constexpr int kMinPasses = 3;      // setup_s is a median of passes
constexpr std::size_t kMinBeyondP95 = 10;
constexpr double kMaxRunSeconds = 150.0;  // hard stop, well inside 180 s
constexpr int kColdWarmup = 6;
/// A decomposition residual may read this far below zero from rounding
/// alone (the reply envelope carries its times as milliseconds).
constexpr double kResidualToleranceMs = 1e-3;
/// Client 0 scrapes telemetry once per this many of its own requests (with
/// four clients, about one scrape per 100 requests) and after its last.
constexpr int kScrapeEvery = 25;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Everything kept about one request: client-side spans, the envelope's
/// service timings, and the decoded response for the correctness check.
struct Sample {
  const PoolEntry* entry = nullptr;
  bool portfolio = false;
  std::uint64_t request_id = 0;
  double wall_ms = 0, encode_ms = 0, decode_ms = 0;
  double queue_ms = 0, solve_ms = 0;
  long long request_bytes = 0, response_bytes = 0;
  std::string error;  ///< transport failure or error envelope
  core::SynthesisResponse response;
  /// Filled by settle(), which then drops the binding and the entry
  /// pointer so a long run keeps only what the metrics read.
  std::string id;
  long long charged = 0;
};

struct Pass {
  /// The requests this pass generated in its set-up; samples point into
  /// it (moving a Pass moves the buffer, so the pointers stay valid).
  std::vector<PoolEntry> pool;
  bool traced = false;
  double setup_s = 0, timed_s = 0;
  std::vector<Sample> warmup, timed;
  long attempted = 0, failed = 0;  ///< service ops besides synthesize
  std::vector<std::string> failures;
  int max_concurrent = 0;
  long long merges = 0;
  long long journal_events = 0, journal_dropped = 0;
  std::vector<double> scrape_ms;
};

/// The seeded sequences of one round of passes (see run_workload).
struct Plan {
  std::vector<std::size_t> warmup;  ///< pool indices, cold warm-up
  std::vector<std::size_t> timed;   ///< pool indices, cold order
  std::vector<bool> portfolio;      ///< per pool index (cold only)
  /// serve_grind: per-client warm-up and timed pool indices.
  std::vector<std::vector<std::size_t>> client_warmup, client_timed;
};

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i;
  return out;
}

std::vector<std::vector<std::size_t>> deal(
    const std::vector<std::size_t>& sequence) {
  std::vector<std::vector<std::size_t>> out(kClients);
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    out[i % kClients].push_back(sequence[i]);
  }
  return out;
}

Plan make_plan(Workload workload, const std::vector<PoolEntry>& pool,
               std::uint64_t seed, std::uint64_t round) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull +
                round * 0xbf58476d1ce4e5b9ull);
  Plan plan;
  plan.portfolio.assign(pool.size(), false);
  switch (workload) {
    case Workload::kColdCorpus: {
      plan.timed = iota(pool.size());
      rng.shuffle(plan.timed);
      // A seeded 1 in 8 requests races the portfolio, as thls --portfolio
      // does, drawn from the entries whose race is bounded and proves the
      // same answer.
      std::vector<std::size_t> eligible;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        if (pool[i].portfolio_ok) eligible.push_back(i);
      }
      rng.shuffle(eligible);
      const std::size_t raced = std::min(eligible.size(), (pool.size() + 4) / 8);
      for (std::size_t i = 0; i < raced; ++i) plan.portfolio[eligible[i]] = true;
      // Warm-up: the cheapest entries by their committed work counts, the
      // same in every run, so setup_s does not depend on the seed.
      plan.warmup = iota(pool.size());
      std::stable_sort(plan.warmup.begin(), plan.warmup.end(),
                       [&](std::size_t a, std::size_t b) {
                         return std::pair(pool[a].nodes, pool[a].popped) <
                                std::pair(pool[b].nodes, pool[b].popped);
                       });
      plan.warmup.resize(std::min<std::size_t>(pool.size(), kColdWarmup));
      break;
    }
    case Workload::kServeGrind: {
      std::vector<std::size_t> warm, timed;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        (pool[i].warmup_only ? warm : timed).push_back(i);
      }
      rng.shuffle(warm);
      rng.shuffle(timed);
      plan.client_warmup = deal(warm);
      plan.client_timed = deal(timed);
      break;
    }
  }
  return plan;
}

// ---- correctness ----------------------------------------------------------

std::optional<std::string> check(const Sample& sample) {
  const PoolEntry& entry = *sample.entry;
  if (!sample.error.empty()) return entry.id + ": " + sample.error;
  const core::OptimizeResult& result = sample.response.result;
  const long long cost = result.has_solution() ? result.cost : 0;
  if (auto contra = contradiction(entry.expected, result.status, cost)) {
    return entry.id + ": " + *contra;
  }
  if (result.has_solution()) {
    const core::ValidationReport report =
        core::validate_solution(entry.request.spec, result.solution);
    if (!report.ok()) {
      return entry.id + ": invalid binding: " + report.violations.front();
    }
    if (result.solution.license_cost(entry.request.spec) != result.cost) {
      return entry.id + ": reported cost differs from the binding's";
    }
  }
  if (result.stats.seconds >= entry.request.limits.time_limit_seconds) {
    return entry.id + ": engine time reached its wall-clock limit";
  }
  return std::nullopt;
}

long long charge(const Sample& sample) {
  return charged_cost(sample.error.empty() ? &sample.response.result : nullptr,
                      sample.entry->market_cost);
}

Decomposition decompose(Workload workload, const Sample& s);

/// Checks every request of a finished pass (warm-up included), records the
/// verdicts in the pass, and releases what the metrics no longer need: the
/// bindings, the warm-up samples and the pass's request pool. In a traced
/// pass a request whose layers overlap (a negative residual) fails too:
/// its per-layer times would not add up to what the caller saw.
void settle(Workload workload, Pass* pass) {
  for (auto* samples : {&pass->warmup, &pass->timed}) {
    for (Sample& s : *samples) {
      ++pass->attempted;
      std::optional<std::string> problem = check(s);
      if (!problem && pass->traced) {
        if (auto overlap = negative_residual(decompose(workload, s),
                                             kResidualToleranceMs)) {
          problem = s.entry->id + ": " + *overlap;
        }
      }
      if (problem) {
        ++pass->failed;
        pass->failures.push_back(*problem);
      }
      s.id = s.entry->id;
      s.charged = charge(s);
      s.response.result.solution = core::Solution();
      s.response.frontier.clear();
      s.entry = nullptr;
    }
  }
  pass->warmup.clear();
  pass->warmup.shrink_to_fit();
  pass->pool.clear();
  pass->pool.shrink_to_fit();
}

core::SynthesisRequest prepared(const PoolEntry& entry, bool portfolio,
                                bool traced) {
  core::SynthesisRequest request = entry.request;
  request.portfolio.enabled = portfolio;
  request.observability.metrics = traced;
  return request;
}

// ---- cold_corpus ------------------------------------------------------------

Sample call_direct(const PoolEntry& entry, bool portfolio, bool traced) {
  Sample sample;
  sample.entry = &entry;
  sample.portfolio = portfolio;
  const core::SynthesisRequest request = prepared(entry, portfolio, traced);
  const auto start = Clock::now();
  sample.response = core::synthesize(request);
  sample.wall_ms = ms_between(start, Clock::now());
  return sample;
}

Pass cold_pass(const std::vector<ExpectedRow>& rows, const Plan& plan,
               bool traced) {
  Pass pass;
  pass.traced = traced;
  const auto start = Clock::now();
  std::string error;
  if (!load_pool(Workload::kColdCorpus, rows, &pass.pool, &error)) {
    pass.failures.push_back(error);
    ++pass.failed;
    return pass;
  }
  for (const std::size_t i : plan.warmup) {
    pass.warmup.push_back(call_direct(pass.pool[i], false, false));
  }
  const auto timed_start = Clock::now();
  pass.setup_s = ms_between(start, timed_start) * 1e-3;
  for (const std::size_t i : plan.timed) {
    pass.timed.push_back(call_direct(pass.pool[i], plan.portfolio[i], traced));
    // No service mints an id here; number the calls so spans stay keyed.
    pass.timed.back().request_id = pass.timed.size();
  }
  pass.timed_s = ms_between(timed_start, Clock::now()) * 1e-3;
  return pass;
}

// ---- serve_grind --------------------------------------------------------------

/// One synthesize round trip on `client`, timed span by span: encode
/// (request_to_json + envelope dump), send, wait, decode (parse +
/// response_from_json).
Sample call_served(service::Client& client, const std::string& tag,
                   const PoolEntry& entry, bool traced) {
  Sample sample;
  sample.entry = &entry;
  const core::SynthesisRequest request = prepared(entry, false, traced);
  const auto t0 = Clock::now();
  service::Json envelope = service::Json::object();
  envelope.set("schema_version", service::kSchemaVersion);
  envelope.set("op", "synthesize");
  envelope.set("id", tag);
  envelope.set("warm", true);
  envelope.set("request", service::request_to_json(request));
  const std::string line = envelope.dump();
  const auto t1 = Clock::now();
  // Each connection is closed-loop and carries nothing else while a
  // synthesize is in flight, so the next line is this request's reply.
  std::string error;
  std::string reply_line;
  const bool received = client.send_line(line, &error) &&
                        client.read_line(&reply_line, &error);
  const auto t3 = Clock::now();
  service::Json in;
  bool ok = false;
  if (!received) {
    error = "transport: " + error;
  } else if (!service::Json::parse(reply_line, &in, &error)) {
    error = "malformed reply: " + error;
  } else if (in.get("id").as_string("") != tag) {
    error = "reply for another request";
  } else if (!in.get("ok").as_bool(false)) {
    error = "error envelope: " +
            in.get("error").get("code").as_string("error");
  } else if (!service::response_from_json(in.get("response"),
                                          &sample.response, &error)) {
    error = "bad response document: " + error;
  } else {
    ok = true;
  }
  const auto t4 = Clock::now();
  sample.error = ok ? "" : error;
  sample.wall_ms = ms_between(t0, t4);
  sample.encode_ms = ms_between(t0, t1);
  sample.decode_ms = ms_between(t3, t4);
  if (ok) {
    const service::Json& info = in.get("service");
    sample.queue_ms = info.get("queue_ms").as_double(0.0);
    sample.solve_ms = info.get("solve_ms").as_double(0.0);
    sample.request_id =
        static_cast<std::uint64_t>(info.get("request_id").as_int(0));
  }
  sample.request_bytes = static_cast<long long>(line.size() + 1);
  sample.response_bytes = static_cast<long long>(reply_line.size() + 1);
  return sample;
}

/// Value of an unlabelled Prometheus sample, or -1.
double prom_value(const std::string& text, const std::string& name) {
  std::size_t at = 0;
  while ((at = text.find(name + " ", at)) != std::string::npos) {
    if (at == 0 || text[at - 1] == '\n') {
      return std::atof(text.c_str() + at + name.size() + 1);
    }
    at += name.size();
  }
  return -1.0;
}

struct ServiceTotals {
  long long merges = 0;
  int max_concurrent = 0;
};

ServiceTotals service_totals(const service::Json& stats) {
  ServiceTotals totals;
  for (const service::Json& market : stats.get("markets").items()) {
    totals.merges += market.get("snapshot_merges").as_int(0);
    totals.max_concurrent = std::max(
        totals.max_concurrent,
        static_cast<int>(market.get("max_concurrent").as_int(0)));
  }
  return totals;
}

/// Runs `body(client_index)` on kClients threads released together; returns
/// the wall time from release to the last join.
double run_clients(const std::function<void(int)>& body) {
  std::latch ready(kClients + 1);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ready.arrive_and_wait();
      body(c);
    });
  }
  const auto start = Clock::now();
  ready.arrive_and_wait();
  for (std::thread& thread : threads) thread.join();
  return ms_between(start, Clock::now()) * 1e-3;
}

Pass serve_pass(Workload workload, const std::vector<ExpectedRow>& rows,
                const Plan& plan, bool traced, const std::string& out_dir,
                int pass_index) {
  Pass pass;
  pass.traced = traced;
  const auto start = Clock::now();
  const auto fail = [&](const std::string& message) {
    pass.failures.push_back(message);
    ++pass.failed;
  };
  std::string error;
  if (!load_pool(workload, rows, &pass.pool, &error)) {
    fail(error);
    return pass;
  }
  const std::string stem = out_dir + "/" + workload_name(workload) + "-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(pass_index);
  const std::string journal_path = stem + ".journal.jsonl";
  std::unique_ptr<obs::RequestJournal> journal =
      obs::RequestJournal::open(journal_path, &error);
  if (journal == nullptr) {
    fail("journal: " + error);
    return pass;
  }
  service::ServerConfig config;
  config.unix_path = stem + ".sock";
  config.service.workers = kServeWorkers;
  config.service.journal = journal.get();
  auto server = std::make_unique<service::Server>(config);
  if (!server->start(&error)) {
    fail("server start: " + error);
    return pass;
  }
  std::vector<std::unique_ptr<service::Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(service::Client::connect_unix(config.unix_path, &error));
    if (clients.back() == nullptr) {
      fail("connect: " + error);
      server->stop();
      return pass;
    }
  }
  const auto tag = [&](int c, const char* phase, std::size_t k) {
    return std::string(phase) + "-" + std::to_string(c) + "-" +
           std::to_string(k);
  };

  std::vector<std::vector<Sample>> per_client(kClients);
  run_clients([&](int c) {
    for (std::size_t k = 0; k < plan.client_warmup[c].size(); ++k) {
      per_client[c].push_back(call_served(*clients[c], tag(c, "w", k),
                                          pass.pool[plan.client_warmup[c][k]],
                                          false));
    }
  });
  for (auto& samples : per_client) {
    for (Sample& s : samples) pass.warmup.push_back(std::move(s));
    samples.clear();
  }
  // Ledgers before the timed phase, so the pass reports timed deltas.
  ServiceTotals before;
  double journal_before = 0, dropped_before = 0;
  ++pass.attempted;
  if (std::optional<service::Json> stats = clients[0]->stats(&error)) {
    before = service_totals(*stats);
  } else {
    fail("stats: " + error);
  }
  ++pass.attempted;
  if (std::optional<std::string> text = clients[0]->telemetry(&error)) {
    journal_before = prom_value(*text, "thlsd_journal_events_appended_total");
    dropped_before = prom_value(*text, "thlsd_journal_events_dropped_total");
  } else {
    fail("telemetry: " + error);
  }
  pass.setup_s = ms_between(start, Clock::now()) * 1e-3;

  std::vector<double> scrapes;
  std::vector<std::string> scrape_errors;
  pass.timed_s = run_clients([&](int c) {
    const std::vector<std::size_t>& sequence = plan.client_timed[c];
    for (std::size_t k = 0; k < sequence.size(); ++k) {
      per_client[c].push_back(call_served(*clients[c], tag(c, "t", k),
                                          pass.pool[sequence[k]], traced));
      if (c == 0 &&
          ((k + 1) % kScrapeEvery == 0 || k + 1 == sequence.size())) {
        const auto t0 = Clock::now();
        std::string scrape_error;
        if (clients[0]->telemetry(&scrape_error)) {
          scrapes.push_back(ms_between(t0, Clock::now()));
        } else {
          scrape_errors.push_back(scrape_error);
        }
      }
    }
  });
  for (auto& samples : per_client) {
    for (Sample& s : samples) pass.timed.push_back(std::move(s));
  }
  pass.attempted += static_cast<long>(scrapes.size() + scrape_errors.size());
  for (const std::string& scrape_error : scrape_errors) {
    fail("telemetry scrape: " + scrape_error);
  }
  pass.scrape_ms = std::move(scrapes);

  ++pass.attempted;
  if (std::optional<service::Json> stats = clients[0]->stats(&error)) {
    const ServiceTotals after = service_totals(*stats);
    pass.merges = after.merges - before.merges;
    pass.max_concurrent = after.max_concurrent;
  } else {
    fail("stats: " + error);
  }
  ++pass.attempted;
  if (std::optional<std::string> text = clients[0]->telemetry(&error)) {
    pass.journal_events = static_cast<long long>(
        prom_value(*text, "thlsd_journal_events_appended_total") -
        journal_before);
    pass.journal_dropped = static_cast<long long>(
        prom_value(*text, "thlsd_journal_events_dropped_total") -
        dropped_before);
  } else {
    fail("telemetry: " + error);
  }
  clients.clear();
  server->stop();
  server.reset();
  journal.reset();
  std::remove(journal_path.c_str());
  return pass;
}

// ---- aggregation -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

StageMs stages_of(const Sample& s) { return stage_ms(s.response.result.metrics); }

Decomposition decompose(Workload workload, const Sample& s) {
  const double engine_ms = s.response.result.stats.seconds * 1e3;
  if (workload == Workload::kColdCorpus) {
    return decompose_direct(s.wall_ms, engine_ms, stages_of(s));
  }
  return decompose_served(s.wall_ms, s.encode_ms, s.decode_ms, s.queue_ms,
                          s.solve_ms, engine_ms, stages_of(s));
}

/// Throughput and the median latency are medians over passes, so a burst
/// of load from outside the benchmark moves one pass, not the result. The
/// p95 pools every timed request of the run: no pass holds the 10 requests
/// beyond its own p95 that the percentile rule asks for.
std::vector<Metric> end_to_end(const std::vector<const Pass*>& passes,
                               long attempted, long failed) {
  std::vector<double> setups, rates, p50s, latencies;
  double proved = 0, cost = 0;
  for (const Pass* pass : passes) {
    setups.push_back(pass->setup_s);
    if (pass->timed_s > 0) {
      rates.push_back(static_cast<double>(pass->timed.size()) / pass->timed_s);
    }
    std::vector<double> pass_latencies;
    for (const Sample& s : pass->timed) {
      pass_latencies.push_back(s.wall_ms);
      const core::OptStatus status = s.response.result.status;
      if (s.error.empty() && (status == core::OptStatus::kOptimal ||
                              status == core::OptStatus::kInfeasible)) {
        proved += 1;
      }
      cost += static_cast<double>(s.charged);
    }
    p50s.push_back(percentile(pass_latencies, 0.50));
    latencies.insert(latencies.end(), pass_latencies.begin(),
                     pass_latencies.end());
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, latencies.size()));
  return {
      {"setup_s", median(setups), "s"},
      {"req_per_s", median(rates), "1/s"},
      {"latency_p50_ms", median(p50s), "ms"},
      {"latency_p95_ms", percentile(latencies, 0.95), "ms"},
      {"proved_frac", proved / n, "ratio"},
      {"license_cost_mean", cost / n, "USD"},
      {"ok_frac", 1.0 - static_cast<double>(failed) / static_cast<double>(std::max(1L, attempted)), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(Workload workload,
                              const std::vector<const Pass*>& traced,
                              double untraced_p50) {
  std::vector<double> wall, encode_us, decode_us, req_bytes, resp_bytes,
      residual, queue, market, call, engine, enumeration, screen, cache,
      bounds, csp, nogood, sls, validation, unattributed, nodes, backjumps,
      nogoods, sls_steps, incumbents, time_to_best, popped_v;
  double popped = 0, pruned = 0, cache_skips = 0, csp_ns = 0, node_sum = 0;
  double raced = 0, seeder_wins = 0;
  for (const Pass* pass : traced) {
    for (const Sample& s : pass->timed) {
      if (!s.error.empty()) continue;
      const Decomposition d = decompose(workload, s);
      const core::OptimizeStats& st = s.response.result.stats;
      wall.push_back(d.wall_ms);
      encode_us.push_back(d.encode_ms * 1e3);
      decode_us.push_back(d.decode_ms * 1e3);
      req_bytes.push_back(static_cast<double>(s.request_bytes));
      resp_bytes.push_back(static_cast<double>(s.response_bytes));
      residual.push_back(d.server_residual_ms);
      queue.push_back(d.queue_ms);
      market.push_back(d.market_ms);
      call.push_back(d.call_ms);
      engine.push_back(d.engine_ms);
      enumeration.push_back(d.stages.enumeration);
      screen.push_back(d.stages.screen);
      cache.push_back(d.stages.cache_probe);
      bounds.push_back(d.stages.bounds);
      csp.push_back(d.stages.csp);
      nogood.push_back(d.stages.nogood);
      sls.push_back(d.stages.sls);
      validation.push_back(d.stages.validation);
      unattributed.push_back(d.unattributed_ms);
      nodes.push_back(static_cast<double>(st.nodes_total));
      backjumps.push_back(static_cast<double>(st.backjumps));
      nogoods.push_back(static_cast<double>(st.nogoods_learned));
      sls_steps.push_back(static_cast<double>(st.sls_steps));
      incumbents.push_back(static_cast<double>(st.incumbents_published));
      const double set_count = static_cast<double>(sets_popped(st));
      popped_v.push_back(set_count);
      popped += set_count;
      pruned += static_cast<double>(st.combos_skipped_screen +
                                    st.combos_skipped_cache + st.lb_prunes);
      cache_skips += static_cast<double>(st.combos_skipped_cache);
      csp_ns += d.stages.csp * 1e6;
      node_sum += static_cast<double>(st.nodes_total);
      if (s.portfolio) {
        raced += 1;
        if (st.best_source == 1 || st.best_source == 2) seeder_wins += 1;
        if (st.time_to_best_seconds >= 0) {
          time_to_best.push_back(st.time_to_best_seconds * 1e3);
        }
      }
    }
  }
  std::vector<double> merges, max_concurrent, journal_events,
      journal_dropped, scrape_ms;
  for (const Pass* pass : traced) {
    merges.push_back(static_cast<double>(pass->merges));
    max_concurrent.push_back(static_cast<double>(pass->max_concurrent));
    journal_events.push_back(static_cast<double>(pass->journal_events));
    journal_dropped.push_back(static_cast<double>(pass->journal_dropped));
    scrape_ms.insert(scrape_ms.end(), pass->scrape_ms.begin(),
                     pass->scrape_ms.end());
  }
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double traced_p50 = percentile(wall, 0.50);
  return {
      {"trace.wall_ms", mean(wall), "ms"},
      {"trace.overhead_frac", ratio(traced_p50 - untraced_p50, untraced_p50), "ratio"},
      {"wire.client_encode_us", mean(encode_us), "us"},
      {"wire.client_decode_us", mean(decode_us), "us"},
      {"wire.request_bytes", mean(req_bytes), "B"},
      {"wire.response_bytes", mean(resp_bytes), "B"},
      {"server.residual_ms", mean(residual), "ms"},
      {"service.queue_wait_ms", mean(queue), "ms"},
      {"service.queue_wait_ms_p50", percentile(queue, 0.50), "ms"},
      {"service.queue_wait_ms_p95", percentile(queue, 0.95), "ms"},
      {"service.market_ms", mean(market), "ms"},
      {"service.max_concurrent", max_concurrent.empty() ? 0.0 : *std::max_element(max_concurrent.begin(), max_concurrent.end()), "count"},
      {"service.merges", mean(merges), "count"},
      {"service.warm_skip_frac", ratio(cache_skips, popped), "ratio"},
      {"core.call_ms", mean(call), "ms"},
      {"core.engine_ms", mean(engine), "ms"},
      {"core.enumeration_ms", mean(enumeration), "ms"},
      {"core.screen_ms", mean(screen), "ms"},
      {"core.cache_probe_ms", mean(cache), "ms"},
      {"core.bounds_ms", mean(bounds), "ms"},
      {"core.unattributed_ms", mean(unattributed), "ms"},
      {"core.sets_popped", mean(popped_v), "count"},
      {"core.prune_frac", ratio(pruned, popped), "ratio"},
      {"core.csp_ms", mean(csp), "ms"},
      {"core.nogood_ms", mean(nogood), "ms"},
      {"core.nodes_total", mean(nodes), "count"},
      {"core.ns_per_node", ratio(csp_ns, node_sum), "ns"},
      {"core.backjumps", mean(backjumps), "count"},
      {"core.nogoods_learned", mean(nogoods), "count"},
      {"core.sls_ms", mean(sls), "ms"},
      {"core.sls_steps", mean(sls_steps), "count"},
      {"core.incumbents", mean(incumbents), "count"},
      {"core.seeder_win_frac", ratio(seeder_wins, raced), "ratio"},
      {"core.time_to_best_ms", mean(time_to_best), "ms"},
      {"core.validation_ms", mean(validation), "ms"},
      {"obs.journal_events", mean(journal_events), "count"},
      {"obs.journal_dropped", mean(journal_dropped), "count"},
      {"obs.scrape_ms", mean(scrape_ms), "ms"},
  };
}

void write_spans(const std::string& path, Workload workload,
                 const std::vector<Pass>& passes, const HostInfo& host) {
  std::ofstream out(path);
  out << "{\"host\":" << host_json(host) << "}\n";
  for (const Pass& pass : passes) {
    if (!pass.traced) continue;
    for (const Sample& s : pass.timed) {
      if (!s.error.empty()) continue;
      const Decomposition d = decompose(workload, s);
      service::Json span = service::Json::object();
      span.set("id", s.id);
      span.set("request_id", static_cast<long long>(s.request_id));
      span.set("wall_ms", d.wall_ms);
      span.set("encode_ms", d.encode_ms);
      span.set("decode_ms", d.decode_ms);
      span.set("server_residual_ms", d.server_residual_ms);
      span.set("queue_ms", d.queue_ms);
      span.set("market_ms", d.market_ms);
      span.set("call_ms", d.call_ms);
      span.set("engine_ms", d.engine_ms);
      span.set("enumeration_ms", d.stages.enumeration);
      span.set("screen_ms", d.stages.screen);
      span.set("cache_probe_ms", d.stages.cache_probe);
      span.set("bounds_ms", d.stages.bounds);
      span.set("csp_ms", d.stages.csp);
      span.set("sls_ms", d.stages.sls);
      span.set("unattributed_ms", d.unattributed_ms);
      out << span.dump() << '\n';
    }
  }
}

}  // namespace

int run_workload(const RunOptions& options,
                 const std::vector<ExpectedRow>& rows) {
  const auto run_start = Clock::now();
  const HostInfo host = host_info(options.git_sha);
  std::printf("# host %s\n", host_json(host).c_str());
  std::vector<PoolEntry> pool;
  std::string error;
  if (!load_pool(options.workload, rows, &pool, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  std::printf("# workload %s seed %llu: pool of %zu requests\n",
              workload_name(options.workload),
              static_cast<unsigned long long>(options.seed), pool.size());
  std::map<std::string, int> class_counts;
  for (const PoolEntry& entry : pool) ++class_counts[entry.cls];
  for (const RequestClass& cls : request_classes()) {
    if (class_counts.count(cls.name) == 0) continue;
    std::printf("#   %-15s %4d  %s\n", cls.name, class_counts[cls.name],
                cls.why);
  }

  std::vector<Pass> passes;
  const auto elapsed = [&] { return ms_between(run_start, Clock::now()) * 1e-3; };
  const auto enough = [&] {
    std::size_t plain = 0, traced = 0;
    std::size_t plain_samples = 0, traced_samples = 0;
    for (const Pass& pass : passes) {
      (pass.traced ? traced : plain) += 1;
      (pass.traced ? traced_samples : plain_samples) += pass.timed.size();
    }
    const std::size_t min_passes = options.trace ? 2 : kMinPasses;
    const bool samples_ok =
        samples_beyond(plain_samples, 0.95) >= kMinBeyondP95 &&
        (!options.trace || samples_beyond(traced_samples, 0.95) >= kMinBeyondP95);
    return plain >= min_passes && (!options.trace || traced >= min_passes) &&
           samples_ok && elapsed() >= options.seconds;
  };
  while (!enough() && elapsed() < kMaxRunSeconds) {
    const bool traced = options.trace && passes.size() % 2 == 1;
    const int index = static_cast<int>(passes.size());
    // Each round draws its own plan from the seed, so a median over passes
    // spans several orders and portfolio draws instead of resting on one.
    // A traced pass shares the round of the plain pass before it, so
    // trace.overhead_frac compares like with like.
    const int round = options.trace ? index / 2 : index;
    const Plan plan = make_plan(options.workload, pool, options.seed,
                                static_cast<std::uint64_t>(round));
    passes.push_back(options.workload == Workload::kColdCorpus
                         ? cold_pass(rows, plan, traced)
                         : serve_pass(options.workload, rows, plan, traced,
                                      options.out_dir, index));
    Pass& pass = passes.back();
    settle(options.workload, &pass);
    std::printf("# pass %d%s: setup %.3f s, %zu timed requests in %.3f s\n",
                index, traced ? " (traced)" : "", pass.setup_s,
                pass.timed.size(), pass.timed_s);
    std::fflush(stdout);
    if (pass.timed.empty()) break;
  }

  // Correctness over every request of every pass (see settle()).
  long attempted = 0, failed = 0;
  std::vector<std::string> failures;
  for (const Pass& pass : passes) {
    attempted += pass.attempted;
    failed += pass.failed;
    failures.insert(failures.end(), pass.failures.begin(), pass.failures.end());
  }
  for (std::size_t i = 0; i < failures.size() && i < 10; ++i) {
    std::printf("# FAILED %s\n", failures[i].c_str());
  }

  std::vector<const Pass*> plain, traced;
  for (const Pass& pass : passes) (pass.traced ? traced : plain).push_back(&pass);
  const std::vector<Metric> e2e = end_to_end(plain, attempted, failed);
  std::vector<Metric> metrics = e2e;
  if (options.trace) {
    metrics = per_layer(options.workload, traced, e2e[2].value);
    const std::string spans = options.out_dir + "/spans-" +
                              workload_name(options.workload) + "-seed" +
                              std::to_string(options.seed) + ".jsonl";
    write_spans(spans, options.workload, passes, host);
    std::printf("# spans of every traced request: %s\n", spans.c_str());
  }
  std::size_t samples = 0;
  for (const Pass* pass : plain) samples += pass->timed.size();
  std::printf("# %zu passes, %zu timed requests (untraced), failed_frac %.6g\n",
              passes.size(), samples,
              static_cast<double>(failed) / static_cast<double>(std::max(1L, attempted)));
  for (const Metric& m : metrics) {
    std::printf("# %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  const bool correct =
      failed == 0 && samples_beyond(samples, 0.95) >= kMinBeyondP95;
  service::Json result = service::Json::object();
  result.set("correct", correct);
  result.set("attempted", static_cast<long long>(attempted));
  result.set("failed", static_cast<long long>(failed));
  service::Json values = service::Json::object();
  for (const Metric& m : metrics) {
    service::Json metric = service::Json::object();
    metric.set("value", m.value);
    metric.set("unit", m.unit);
    values.set(m.name, std::move(metric));
  }
  result.set("metrics", std::move(values));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace perfbench
