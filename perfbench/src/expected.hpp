// The committed expected answers (data/expected.tsv) and the request pools
// built from them.
//
// One row per kept request: its id, the digest of the request it was
// computed for, the answer (status and cost), the deterministic work counts
// the class filter used, whether the corpus entry may race the portfolio,
// the faithful-ILP cross-check verdict, and its role (timed, or warm-up
// only).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "stats.hpp"

namespace perfbench {

enum class Workload { kColdCorpus, kServeGrind };

const char* workload_name(Workload workload);
bool parse_workload(const std::string& name, Workload* out);

struct ExpectedRow {
  std::string id;
  std::uint64_t digest = 0;
  Expected answer;
  long long nodes = 0;   ///< OptimizeStats::nodes_total
  long long popped = 0;  ///< license sets taken off the queue
  long long sls_steps = 0;  ///< portfolio run, corpus entries only
  bool portfolio_ok = false;
  std::string ilp = "-";  ///< "agree" when the faithful ILP proved the same
  std::string role = "timed";  ///< "timed" or "warmup"
};

/// Sets popped off the cheapest-first queue: dispatched plus every prune.
long long sets_popped(const ht::core::OptimizeStats& stats);

bool read_expected(const std::string& path, std::vector<ExpectedRow>* rows,
                   std::string* error);

/// One request of a workload pool, ready to send.
struct PoolEntry {
  std::string id;
  std::string cls;
  ht::core::SynthesisRequest request;
  Expected expected;
  bool portfolio_ok = false;
  bool warmup_only = false;
  long long popped = 0;
  long long nodes = 0;
  long long market_cost = 0;  ///< licensing the request's whole market
};

/// The pool of `workload` in file order. Fails when a row's digest no
/// longer matches the generated request (regenerate the file then).
bool load_pool(Workload workload, const std::vector<ExpectedRow>& rows,
               std::vector<PoolEntry>* pool, std::string* error);

/// Solves every candidate on a cold engine, applies the class filters,
/// cross-checks tiny entries against the faithful ILP, and writes the
/// kept rows to `path`. Prints a summary per class to stderr. Fails when a
/// candidate reaches the generation clock before the filters decide it.
int generate_expected(const std::string& path);

}  // namespace perfbench
