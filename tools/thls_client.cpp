// thls-client — command-line client for the thlsd daemon.
//
//   thls-client [--connect ENDPOINT] optimize <dfg|benchmark> [options]
//   thls-client [--connect ENDPOINT] batch FILE [--verify] [--cold]
//   thls-client print-request <dfg|benchmark> [options]
//   thls-client [--connect ENDPOINT] stats | ping | shutdown
//   thls-client [--connect ENDPOINT] cancel ID
//   thls-client [--connect ENDPOINT] telemetry
//   thls-client [--connect ENDPOINT] top  [--interval-ms N] [--count N]
//   thls-client [--connect ENDPOINT] tail [--interval-ms N] [--count N]
//
// telemetry prints one Prometheus text-exposition scrape (the `telemetry`
// wire op). top prints a one-line service summary per interval (queue
// depth, counters, rolling latency percentiles — a load-test dashboard).
// tail follows the telemetry stream and prints only the series whose
// values changed since the previous scrape. --count 0 (default) runs
// until interrupted.
//
// ENDPOINT is unix:/path or tcp:host:port (default unix:/tmp/thlsd.sock).
//
// optimize shares thls's spec flags (--catalog --lambda-det --lambda-rec
// --detection-only --area --max-instances --strategy --threads
// --time-limit --seed --no-bounds --no-screens --portfolio
// --no-close-pairs --metrics) and adds:
//   --kind K          minimize (default) | minimize_total_latency |
//                     area_frontier | latency_frontier
//   --lambda-total N  for minimize_total_latency
//   --sweep A,B,C     constraint values for the frontier kinds
//   --priority N --deadline-ms N --id S --cold
//   --verify          also solve locally on a cold engine and fail unless
//                     status, cost and bindings match the daemon's reply;
//                     the local run honors --threads (batch: overriding
//                     each request's own thread count — results are
//                     thread-count invariant, so any value is a valid
//                     referee) and the diff line reports the count used
//
// print-request writes the request's wire JSON (one line) to stdout —
// compose batch files with it. batch submits every line of FILE
// concurrently on its own connection (the CI smoke job's shape).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "common.hpp"

#include "service/client.hpp"
#include "util/strings.hpp"

using namespace ht;

namespace {

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) {
    std::fprintf(stderr, "thls-client: %s\n\n", error.c_str());
  }
  std::fputs(
      "usage: thls-client [--connect unix:PATH|tcp:HOST:PORT] <command>\n"
      "commands: optimize <dfg|benchmark> [options]\n"
      "          batch FILE [--verify] [--cold]\n"
      "          print-request <dfg|benchmark> [options]\n"
      "          stats [--assert-warm-hits] | ping | shutdown | cancel ID\n"
      "          telemetry | top [--interval-ms N] [--count N]\n"
      "          tail [--interval-ms N] [--count N]\n"
      "optimize options: thls spec flags plus --kind K --lambda-total N\n"
      "          --sweep A,B,C --priority N --deadline-ms N --id S --cold\n"
      "          --verify\n"
      "stats --assert-warm-hits exits 1 unless some market's last request\n"
      "          skipped combos via warm state (CI warm-restore check)\n",
      stderr);
  std::exit(2);
}

struct ClientOptions {
  std::string endpoint = "unix:/tmp/thlsd.sock";
  std::string command;
  std::string operand;  // graph, batch file, or cancel id
  tools::SpecOptions spec;
  tools::EngineOptions engine;
  std::string kind = "minimize";
  int lambda_total = 0;
  std::vector<long long> sweep;
  service::JobInfo job;
  bool verify = false;
  /// stats: exit nonzero unless some market shows warm-state skips on its
  /// most recent request (asserts a --warm-dir restore actually paid off).
  bool assert_warm_hits = false;
  /// --threads was given explicitly: batch --verify then overrides each
  /// parsed request's thread count for the local referee run.
  bool threads_set = false;
  /// top/tail: scrape cadence and iteration cap (0 = until interrupted).
  int interval_ms = 1000;
  int count = 0;
};

ClientOptions parse_args(int argc, char** argv) {
  ClientOptions options;
  int i = 1;
  if (i < argc && std::string(argv[i]) == "--connect") {
    if (i + 1 >= argc) usage("--connect needs a value");
    options.endpoint = argv[i + 1];
    i += 2;
  }
  if (i >= argc) usage();
  options.command = argv[i++];
  if (options.command == "optimize" || options.command == "print-request" ||
      options.command == "batch" || options.command == "cancel") {
    if (i >= argc) usage(options.command + " needs an operand");
    options.operand = argv[i++];
    options.spec.graph_arg = options.operand;
  }
  auto need_value = [&](const std::string& flag) -> std::string {
    if (i >= argc) usage("flag " + flag + " needs a value");
    return argv[i++];
  };
  while (i < argc) {
    const std::string flag = argv[i++];
    if (flag == "--catalog") {
      options.spec.catalog = need_value(flag);
    } else if (flag == "--lambda-det") {
      options.spec.lambda_det = util::parse_number<int>(need_value(flag), flag);
    } else if (flag == "--lambda-rec") {
      options.spec.lambda_rec = util::parse_number<int>(need_value(flag), flag);
    } else if (flag == "--detection-only") {
      options.spec.detection_only = true;
    } else if (flag == "--area") {
      options.spec.area = util::parse_number<long long>(need_value(flag), flag);
    } else if (flag == "--max-instances") {
      options.spec.max_instances =
          util::parse_number<int>(need_value(flag), flag);
    } else if (flag == "--no-screens") {
      options.engine.static_screens = false;
    } else if (flag == "--no-close-pairs") {
      options.spec.close_pairs = false;
    } else if (flag == "--strategy") {
      options.engine.strategy = need_value(flag);
    } else if (flag == "--threads") {
      options.engine.threads = util::parse_number<int>(need_value(flag), flag);
      options.threads_set = true;
    } else if (flag == "--time-limit") {
      options.engine.time_limit =
          util::parse_number<double>(need_value(flag), flag);
    } else if (flag == "--no-bounds") {
      options.engine.cost_bounds = false;
    } else if (flag == "--portfolio") {
      options.engine.portfolio = true;
    } else if (flag == "--metrics") {
      options.engine.metrics = true;
    } else if (flag == "--seed") {
      options.spec.seed = options.engine.seed =
          util::parse_number<unsigned long long>(need_value(flag), flag);
    } else if (flag == "--kind") {
      options.kind = need_value(flag);
    } else if (flag == "--lambda-total") {
      options.lambda_total = util::parse_number<int>(need_value(flag), flag);
    } else if (flag == "--sweep") {
      for (const std::string& token :
           util::split(need_value(flag), ',')) {
        options.sweep.push_back(util::parse_number<long long>(token, flag));
      }
    } else if (flag == "--priority") {
      options.job.priority = util::parse_number<int>(need_value(flag), flag);
    } else if (flag == "--deadline-ms") {
      options.job.deadline_seconds =
          util::parse_number<double>(need_value(flag), flag) / 1000.0;
    } else if (flag == "--id") {
      options.job.id = need_value(flag);
    } else if (flag == "--cold") {
      options.job.warm = false;
    } else if (flag == "--verify") {
      options.verify = true;
    } else if (flag == "--assert-warm-hits") {
      options.assert_warm_hits = true;
    } else if (flag == "--interval-ms") {
      options.interval_ms = util::parse_number<int>(need_value(flag), flag);
    } else if (flag == "--count") {
      options.count = util::parse_number<int>(need_value(flag), flag);
    } else {
      usage("unknown flag " + flag);
    }
  }
  return options;
}

core::SynthesisRequest build_request(const ClientOptions& options) {
  core::SynthesisRequest request =
      tools::build_request(tools::build_spec(options.spec), options.engine);
  if (!core::parse_request_kind(options.kind, &request.kind)) {
    usage("unknown --kind " + options.kind);
  }
  request.lambda_total = options.lambda_total;
  request.sweep_values = options.sweep;
  return request;
}

/// The deterministic part of a response: statuses, costs, splits and
/// bindings — everything warm-state reuse must NOT change. Stats and
/// metrics (speed) are deliberately excluded.
service::Json outcome_json(const core::SynthesisResponse& response) {
  auto trim = [](const core::OptimizeResult& result) {
    const service::Json full = service::result_to_json(result);
    service::Json trimmed = service::Json::object();
    for (const auto& [key, value] : full.fields()) {
      if (key != "stats" && key != "metrics") trimmed.set(key, value);
    }
    return trimmed;
  };
  service::Json json = service::Json::object();
  json.set("kind", core::request_kind_name(response.kind));
  json.set("result", trim(response.result));
  json.set("lambda_detection", response.lambda_detection);
  json.set("lambda_recovery", response.lambda_recovery);
  service::Json frontier = service::Json::array();
  for (const core::FrontierPoint& point : response.frontier) {
    service::Json entry = service::Json::object();
    entry.set("constraint", point.constraint);
    entry.set("result", trim(point.result));
    frontier.push_back(std::move(entry));
  }
  json.set("frontier", std::move(frontier));
  return json;
}

/// Daemon reply vs. a local cold-engine run of the same request. Returns
/// true when the outcomes are bit-identical. The local run uses the
/// request's thread count as given (callers apply any --threads override
/// first); both report lines name it so a diff is attributable.
bool verify_against_local(const core::SynthesisRequest& request,
                          const core::SynthesisResponse& remote,
                          const std::string& label) {
  const int threads = request.parallelism.resolved_threads();
  const core::SynthesisResponse local = core::synthesize(request);
  const std::string remote_outcome = outcome_json(remote).dump();
  const std::string local_outcome = outcome_json(local).dump();
  if (remote_outcome == local_outcome) {
    std::printf(
        "%s: verify: daemon matches local cold engine (threads=%d)\n",
        label.c_str(), threads);
    return true;
  }
  std::fprintf(stderr,
               "%s: verify FAILED (threads=%d)\n  daemon: %s\n  local : %s\n",
               label.c_str(), threads, remote_outcome.c_str(),
               local_outcome.c_str());
  return false;
}

void print_reply(const std::string& label,
                 const service::Client::Reply& reply) {
  const core::OptimizeResult& result = reply.response.result;
  const service::Json& info = reply.envelope.get("service");
  std::printf("%s: status=%s cost=%lld combos=%ld nodes=%ld %s "
              "queue=%.1fms solve=%.1fms\n",
              label.c_str(), core::to_string(result.status).c_str(),
              result.cost, result.stats.combos_tried,
              result.stats.nodes_total,
              info.get("warm").as_bool(true) ? "warm" : "cold",
              info.get("queue_ms").as_double(0.0),
              info.get("solve_ms").as_double(0.0));
  for (const core::FrontierPoint& point : reply.response.frontier) {
    std::printf("  %s<=%lld: %s cost=%lld\n",
                reply.response.kind == core::RequestKind::kAreaFrontier
                    ? "area"
                    : "latency",
                point.constraint,
                core::to_string(point.result.status).c_str(),
                point.result.cost);
  }
}

int cmd_optimize(const ClientOptions& options) {
  const core::SynthesisRequest request = build_request(options);
  std::string error;
  const std::unique_ptr<service::Client> client =
      service::Client::connect(options.endpoint, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "thls-client: %s\n", error.c_str());
    return 1;
  }
  const service::Client::Reply reply =
      client->synthesize(request, options.job);
  if (!reply.ok) {
    std::fprintf(stderr, "thls-client: %s: %s\n", reply.error_code.c_str(),
                 reply.error_message.c_str());
    return 1;
  }
  print_reply(options.operand, reply);
  if (options.verify &&
      !verify_against_local(request, reply.response, options.operand)) {
    return 1;
  }
  return reply.response.result.has_solution() ||
                 !reply.response.frontier.empty()
             ? 0
             : 1;
}

int cmd_print_request(const ClientOptions& options) {
  std::puts(service::serialize_request(build_request(options)).c_str());
  return 0;
}

int cmd_batch(const ClientOptions& options) {
  std::ifstream stream(options.operand);
  if (!stream.good()) {
    std::fprintf(stderr, "thls-client: cannot open %s\n",
                 options.operand.c_str());
    return 1;
  }
  std::vector<core::SynthesisRequest> requests;
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    core::SynthesisRequest request;
    std::string error;
    if (!service::parse_request(line, &request, &error)) {
      std::fprintf(stderr, "thls-client: %s line %zu: %s\n",
                   options.operand.c_str(), requests.size() + 1,
                   error.c_str());
      return 1;
    }
    requests.push_back(std::move(request));
  }
  if (requests.empty()) {
    std::fprintf(stderr, "thls-client: %s holds no requests\n",
                 options.operand.c_str());
    return 1;
  }

  // Every request on its own connection, all in flight at once.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    threads.emplace_back([&, r] {
      const std::string label =
          "batch[" + std::to_string(r) + "]";
      std::string error;
      const std::unique_ptr<service::Client> client =
          service::Client::connect(options.endpoint, &error);
      if (client == nullptr) {
        std::fprintf(stderr, "%s: %s\n", label.c_str(), error.c_str());
        ++failures;
        return;
      }
      service::JobInfo job = options.job;
      job.id = label;
      const service::Client::Reply reply =
          client->synthesize(requests[r], job);
      if (!reply.ok) {
        std::fprintf(stderr, "%s: %s: %s\n", label.c_str(),
                     reply.error_code.c_str(),
                     reply.error_message.c_str());
        ++failures;
        return;
      }
      print_reply(label, reply);
      if (options.verify) {
        // Honor the command line's --threads for the referee run (the
        // batch file's requests carry their own thread counts; results
        // are thread-count invariant, so overriding is safe and lets CI
        // verify at full width).
        core::SynthesisRequest local = requests[r];
        if (options.threads_set) {
          local.parallelism.threads = options.engine.threads;
        }
        if (!verify_against_local(local, reply.response, label)) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (failures.load() > 0) {
    std::fprintf(stderr, "thls-client: %d of %zu batch requests failed\n",
                 failures.load(), requests.size());
    return 1;
  }
  std::printf("batch: %zu requests ok\n", requests.size());
  return 0;
}

/// One `top` row from a stats() document: queue pressure, lifetime
/// counters, and the rolling latency percentiles.
void print_top_row(int tick, const service::Json& stats) {
  const service::Json& service = stats.get("service");
  const service::Json& latency = stats.get("latency");
  std::printf(
      "top[%d] queue=%lld/%lld submitted=%lld completed=%lld "
      "cancelled=%lld expired=%lld rejected=%lld",
      tick, service.get("queue_depth").as_int(0),
      service.get("queue_capacity").as_int(0),
      service.get("submitted").as_int(0),
      service.get("completed").as_int(0),
      service.get("cancelled").as_int(0),
      service.get("expired").as_int(0),
      service.get("rejected").as_int(0));
  if (latency.is_object()) {
    std::printf(" queue_p95=%.1fms e2e_p50=%.1fms e2e_p95=%.1fms",
                latency.get("queue_p95_s").as_double(0.0) * 1000.0,
                latency.get("e2e_p50_s").as_double(0.0) * 1000.0,
                latency.get("e2e_p95_s").as_double(0.0) * 1000.0);
  }
  std::printf("\n");
  std::fflush(stdout);
}

int cmd_top(service::Client& client, const ClientOptions& options) {
  for (int tick = 0; options.count == 0 || tick < options.count; ++tick) {
    if (tick > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max(1, options.interval_ms)));
    }
    std::string error;
    const std::optional<service::Json> stats = client.stats(&error);
    if (!stats.has_value()) {
      std::fprintf(stderr, "thls-client: %s\n", error.c_str());
      return 1;
    }
    print_top_row(tick, *stats);
  }
  return 0;
}

int cmd_tail(service::Client& client, const ClientOptions& options) {
  // Print only the sample lines whose value changed since the previous
  // scrape — `tail -f` over the telemetry counters. Headers (# lines)
  // never print; the first scrape establishes the baseline silently.
  std::map<std::string, std::string> previous;
  for (int tick = 0; options.count == 0 || tick < options.count; ++tick) {
    if (tick > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max(1, options.interval_ms)));
    }
    std::string error;
    const std::optional<std::string> body = client.telemetry(&error);
    if (!body.has_value()) {
      std::fprintf(stderr, "thls-client: %s\n", error.c_str());
      return 1;
    }
    std::istringstream lines(*body);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.rfind(' ');
      if (space == std::string::npos) continue;
      const std::string series = line.substr(0, space);
      const std::string value = line.substr(space + 1);
      auto it = previous.find(series);
      const bool changed = it == previous.end() || it->second != value;
      previous[series] = value;
      if (tick > 0 && changed) {
        std::printf("%s\n", line.c_str());
      }
    }
    std::fflush(stdout);
  }
  return 0;
}

int with_client(const ClientOptions& options,
                int (*run)(service::Client&, const ClientOptions&)) {
  std::string error;
  const std::unique_ptr<service::Client> client =
      service::Client::connect(options.endpoint, &error);
  if (client == nullptr) {
    std::fprintf(stderr, "thls-client: %s\n", error.c_str());
    return 1;
  }
  return run(*client, options);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ClientOptions options = parse_args(argc, argv);
    if (options.command == "optimize") return cmd_optimize(options);
    if (options.command == "print-request") {
      return cmd_print_request(options);
    }
    if (options.command == "batch") return cmd_batch(options);
    if (options.command == "stats") {
      return with_client(options, [](service::Client& client,
                                     const ClientOptions& opts) {
        std::string error;
        const std::optional<service::Json> stats = client.stats(&error);
        if (!stats.has_value()) {
          std::fprintf(stderr, "thls-client: %s\n", error.c_str());
          return 1;
        }
        std::puts(stats->dump().c_str());
        if (opts.assert_warm_hits) {
          // The warm-restore smoke gate: at least one market's most recent
          // request must have skipped combos via warm state (dominance
          // cache hits seeded by earlier requests or a --warm-dir restore).
          const service::Json& markets = stats->get("markets");
          bool hit = false;
          for (const service::Json& market : markets.items()) {
            if (market.get("last_combos_skipped_cache").as_int(0) > 0) {
              hit = true;
              break;
            }
          }
          if (!hit) {
            std::fprintf(stderr,
                         "thls-client: no market shows warm-state skips "
                         "on its last request\n");
            return 1;
          }
        }
        return 0;
      });
    }
    if (options.command == "telemetry") {
      return with_client(options,
                         [](service::Client& client, const ClientOptions&) {
                           std::string error;
                           const std::optional<std::string> body =
                               client.telemetry(&error);
                           if (!body.has_value()) {
                             std::fprintf(stderr, "thls-client: %s\n",
                                          error.c_str());
                             return 1;
                           }
                           std::fputs(body->c_str(), stdout);
                           return 0;
                         });
    }
    if (options.command == "top") return with_client(options, cmd_top);
    if (options.command == "tail") return with_client(options, cmd_tail);
    if (options.command == "ping") {
      return with_client(options,
                         [](service::Client& client, const ClientOptions&) {
                           if (client.ping()) {
                             std::puts("pong");
                             return 0;
                           }
                           return 1;
                         });
    }
    if (options.command == "cancel") {
      return with_client(
          options, [](service::Client& client, const ClientOptions& opts) {
            const bool cancelled = client.cancel(opts.operand);
            std::printf("cancel %s: %s\n", opts.operand.c_str(),
                        cancelled ? "cancelled" : "no such live job");
            return cancelled ? 0 : 1;
          });
    }
    if (options.command == "shutdown") {
      return with_client(options,
                         [](service::Client& client, const ClientOptions&) {
                           return client.shutdown_server() ? 0 : 1;
                         });
    }
    usage("unknown command " + options.command);
  } catch (const util::Error& error) {
    std::fprintf(stderr, "thls-client: %s\n", error.what());
    return 1;
  }
}
