// thlsd — synthesis-as-a-service daemon.
//
// Serves the JSON-lines protocol of src/service/server.hpp on a Unix
// socket (default /tmp/thlsd.sock) and/or a loopback TCP port, running
// every request through per-vendor-market warm engine pools: same-market
// requests run concurrently over a shared immutable warm-state snapshot
// and fold what they learn back in, so repeated requests reuse the
// accumulated infeasibility proofs and nogoods of earlier ones — same
// answers, fewer nodes. See DESIGN.md §5.
//
//   thlsd [--socket PATH] [--tcp [PORT]] [--workers N] [--queue N]
//         [--max-line BYTES] [--engine-pool N] [--warm-dir DIR]
//         [--journal PATH] [--flight-dir DIR] [--telemetry PATH]
//         [--telemetry-period-ms N]
//
//   --socket PATH    Unix socket path (default /tmp/thlsd.sock;
//                    "" disables)
//   --tcp [PORT]     also listen on 127.0.0.1:PORT (0 or omitted PORT =
//                    kernel-assigned; the chosen port is printed)
//   --workers N      concurrent solves (default 2)
//   --queue N        admission queue depth (default 32); a full queue
//                    rejects with a structured queue_full error
//   --max-line BYTES reject longer protocol lines (default 4 MiB)
//   --engine-pool N  warm engines per market (default 0 = match workers;
//                    1 serializes same-market requests, the old behavior)
//   --warm-dir DIR   persist per-market warm-state snapshots: restore
//                    market-<hex>.json files from DIR on start, write the
//                    published snapshots back on shutdown, so a restarted
//                    daemon skips the warm-up cliff
//   --journal PATH   append-only request-lifecycle journal (JSON lines;
//                    see src/obs/journal.hpp): one admit and exactly one
//                    terminal event per request, keyed by request id
//   --flight-dir DIR flight recorder: keep a ring of recent service spans
//                    per worker and dump req-<id>.trace.json into DIR when
//                    a request misses its deadline, is cancelled, or runs
//                    anomalously slow (see src/obs/flight_recorder.hpp)
//   --telemetry PATH periodically write the Prometheus text exposition
//                    (the `telemetry` wire op's body) to PATH via
//                    tmp+rename, for file-based scrapers
//   --telemetry-period-ms N   rewrite interval (default 1000)
//
// Stop with SIGINT/SIGTERM or the protocol op {"op":"shutdown"}.
#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/journal.hpp"
#include "service/server.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

using namespace ht;

namespace {

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "thlsd: %s\n\n", error.c_str());
  std::fputs(
      "usage: thlsd [--socket PATH] [--tcp [PORT]] [--workers N]\n"
      "             [--queue N] [--max-line BYTES] [--engine-pool N]\n"
      "             [--warm-dir DIR] [--journal PATH] [--flight-dir DIR]\n"
      "             [--telemetry PATH] [--telemetry-period-ms N]\n",
      stderr);
  std::exit(2);
}

/// Loads every market-*.json snapshot in `dir` into the service. Files
/// that fail to parse are skipped with a warning — a stale or corrupt
/// snapshot must never stop the daemon (worst case it starts cold).
int restore_warm_snapshots(const std::string& dir,
                           service::SynthesisService& service) {
  DIR* handle = opendir(dir.c_str());
  if (handle == nullptr) return 0;  // absent dir = first run, start cold
  int restored = 0;
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.size() < 13 || name.compare(0, 7, "market-") != 0 ||
        name.compare(name.size() - 5, 5, ".json") != 0) {
      continue;
    }
    const std::string path = dir + "/" + name;
    std::ifstream in(path);
    if (!in) continue;
    std::ostringstream text;
    text << in.rdbuf();
    auto snapshot = std::make_shared<core::WarmSnapshot>();
    std::string error;
    if (!service::parse_warm_snapshot(text.str(), snapshot.get(), &error)) {
      std::fprintf(stderr, "thlsd: skipping %s: %s\n", path.c_str(),
                   error.c_str());
      continue;
    }
    service.import_warm(std::move(snapshot));
    ++restored;
  }
  closedir(handle);
  return restored;
}

/// Writes every published snapshot to `dir` as market-<hex16>.json.
int save_warm_snapshots(const std::string& dir,
                        service::SynthesisService& service) {
  ::mkdir(dir.c_str(), 0755);  // best effort; open() below reports failures
  int saved = 0;
  for (const core::WarmSnapshotPtr& snapshot : service.export_warm()) {
    char name[48];
    std::snprintf(name, sizeof name, "market-%016llx.json",
                  static_cast<unsigned long long>(snapshot->market));
    const std::string path = dir + "/" + name;
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "thlsd: cannot write %s\n", path.c_str());
      continue;
    }
    out << service::serialize_warm_snapshot(*snapshot) << "\n";
    ++saved;
  }
  return saved;
}

}  // namespace

int main(int argc, char** argv) {
  service::ServerConfig config;
  config.unix_path = "/tmp/thlsd.sock";
  std::string warm_dir;
  std::string journal_path;
  std::string flight_dir;
  std::string telemetry_path;
  int telemetry_period_ms = 1000;

  // Malformed numeric flag values surface as util::SpecError.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      auto need_value = [&]() -> std::string {
        if (i + 1 >= argc) usage("flag " + flag + " needs a value");
        return argv[++i];
      };
      if (flag == "--socket") {
        config.unix_path = need_value();
      } else if (flag == "--tcp") {
        config.tcp = true;
        // Optional port operand; 0 / absent asks the kernel for one.
        if (i + 1 < argc && argv[i + 1][0] != '-') {
          config.tcp_port = util::parse_number<int>(argv[++i], flag);
        }
      } else if (flag == "--workers") {
        config.service.workers = util::parse_number<int>(need_value(), flag);
      } else if (flag == "--queue") {
        config.service.queue_capacity = static_cast<std::size_t>(
            util::parse_number<unsigned long long>(need_value(), flag));
      } else if (flag == "--max-line") {
        config.max_line_bytes = static_cast<std::size_t>(
            util::parse_number<unsigned long long>(need_value(), flag));
      } else if (flag == "--engine-pool") {
        config.service.engine_pool =
            util::parse_number<int>(need_value(), flag);
      } else if (flag == "--warm-dir") {
        warm_dir = need_value();
      } else if (flag == "--journal") {
        journal_path = need_value();
      } else if (flag == "--flight-dir") {
        flight_dir = need_value();
      } else if (flag == "--telemetry") {
        telemetry_path = need_value();
      } else if (flag == "--telemetry-period-ms") {
        telemetry_period_ms = util::parse_number<int>(need_value(), flag);
      } else {
        usage("unknown flag " + flag);
      }
    }
  } catch (const util::Error& error) {
    std::fprintf(stderr, "thlsd: %s\n", error.what());
    return 1;
  }
  if (config.unix_path.empty() && !config.tcp) {
    usage("nothing to listen on (--socket \"\" and no --tcp)");
  }

  // Route SIGINT/SIGTERM to a dedicated watcher thread (inherited mask
  // keeps them blocked everywhere else) so shutdown runs in a normal
  // thread context instead of a signal handler.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  // Observability sinks must outlive the Server (the service keeps raw
  // pointers), so they are built first and the config points at them.
  std::unique_ptr<obs::RequestJournal> journal;
  if (!journal_path.empty()) {
    std::string journal_error;
    journal = obs::RequestJournal::open(journal_path, &journal_error);
    if (journal == nullptr) {
      std::fprintf(stderr, "thlsd: cannot open journal %s: %s\n",
                   journal_path.c_str(), journal_error.c_str());
      return 1;
    }
    config.service.journal = journal.get();
  }
  std::unique_ptr<obs::FlightRecorder> flight;
  if (!flight_dir.empty()) {
    obs::FlightRecorderConfig flight_config;
    flight_config.dump_dir = flight_dir;
    flight = std::make_unique<obs::FlightRecorder>(flight_config);
    config.service.flight = flight.get();
  }

  service::Server server(config);
  // Restore before the listeners exist: the very first request a client
  // can reach the daemon with must already see the warm snapshots.
  if (!warm_dir.empty()) {
    const int restored = restore_warm_snapshots(warm_dir, server.service());
    std::printf("thlsd: restored %d warm snapshot(s) from %s\n", restored,
                warm_dir.c_str());
  }
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "thlsd: %s\n", error.c_str());
    return 1;
  }
  std::thread([&server, signals] {
    int received = 0;
    sigwait(&signals, &received);
    std::fprintf(stderr, "thlsd: caught %s, shutting down\n",
                 strsignal(received));
    server.request_stop();
  }).detach();

  if (!server.unix_path().empty()) {
    std::printf("thlsd: listening on unix:%s\n", server.unix_path().c_str());
  }
  if (server.tcp_port() >= 0) {
    std::printf("thlsd: listening on tcp:127.0.0.1:%d\n", server.tcp_port());
  }
  std::printf("thlsd: %d workers, queue depth %zu\n",
              config.service.workers, config.service.queue_capacity);
  std::fflush(stdout);

  // File-based telemetry: rewrite the Prometheus exposition atomically
  // (tmp + rename) every period, so a scraper never reads a torn file.
  std::mutex telemetry_mutex;
  std::condition_variable telemetry_cv;
  bool telemetry_stop = false;
  std::thread telemetry_thread;
  if (!telemetry_path.empty()) {
    telemetry_thread = std::thread([&] {
      const auto period =
          std::chrono::milliseconds(std::max(1, telemetry_period_ms));
      const std::string tmp_path = telemetry_path + ".tmp";
      while (true) {
        {
          std::ofstream out(tmp_path, std::ios::trunc);
          if (out) {
            out << server.service().telemetry();
            out.close();
            if (out.good()) {
              std::rename(tmp_path.c_str(), telemetry_path.c_str());
            }
          }
        }
        std::unique_lock<std::mutex> lock(telemetry_mutex);
        if (telemetry_cv.wait_for(lock, period,
                                  [&] { return telemetry_stop; })) {
          return;
        }
      }
    });
  }

  server.wait();
  server.stop();
  if (telemetry_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(telemetry_mutex);
      telemetry_stop = true;
    }
    telemetry_cv.notify_all();
    telemetry_thread.join();
  }
  // Persist warm state only after stop(): workers have joined, so every
  // in-flight delta has been folded into its market's published snapshot.
  if (!warm_dir.empty()) {
    const int saved = save_warm_snapshots(warm_dir, server.service());
    std::printf("thlsd: saved %d warm snapshot(s) to %s\n", saved,
                warm_dir.c_str());
  }
  std::puts("thlsd: stopped");
  return 0;
}
