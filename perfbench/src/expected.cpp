#include "expected.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "core/ilp_formulation.hpp"
#include "core/validate.hpp"

namespace perfbench {
namespace {

using namespace ht;

// Class filters. Counts only: the same request always passes or fails.
constexpr long long kCorpusNodeCap = 2'000'000;
/// Corpus entries that pop at least this many license sets are "heavy"
/// (the enumeration loop runs to the combo budget); they are kept up to a
/// fifth of the corpus, in candidate order.
constexpr long long kHeavyPopped = 100'000;
constexpr long long kPortfolioSlsStepCap = 400;
constexpr double kIlpSeconds = 20.0;
/// Generation solves under this shorter clock: a solve that stays below it
/// is decided by the deterministic budgets alone, so a run under the
/// longer guard clock repeats it exactly. A solve that reaches it before a
/// count cap has dropped it stops the generation (see clock_error).
constexpr double kScreenSeconds = 2.0;
constexpr long long kGrindMinNodes = 250'000;
constexpr long long kGrindMaxNodes = 1'500'000;
constexpr std::size_t kGrindTimed = 48;
constexpr std::size_t kGrindWarmup = 4;

const char* kHeader =
    "id\tdigest\tstatus\tcost\tnodes\tpopped\tsls_steps\tportfolio\tilp"
    "\trole";

bool parse_status(const std::string& text, core::OptStatus* out) {
  for (const core::OptStatus status :
       {core::OptStatus::kOptimal, core::OptStatus::kFeasible,
        core::OptStatus::kInfeasible, core::OptStatus::kUnknown}) {
    if (core::to_string(status) == text) {
      *out = status;
      return true;
    }
  }
  return false;
}

const char* pool_prefix(Workload workload) {
  switch (workload) {
    case Workload::kColdCorpus:
      return "corpus/";
    case Workload::kServeGrind:
      return "grind/";
  }
  return "";
}

std::vector<Candidate> candidates_of(Workload workload) {
  switch (workload) {
    case Workload::kColdCorpus:
      return corpus_candidates();
    case Workload::kServeGrind:
      return grind_candidates();
  }
  return {};
}

bool clock_limited(const core::OptimizeResult& result) {
  return result.stats.seconds >= 0.95 * kScreenSeconds;
}

/// A solve stopped by the clock has smaller counts than the full solve, so
/// only a cap it already exceeds can drop it. Any other verdict on it would
/// depend on the generating host's speed: stop, so the caps get tightened
/// instead of the kept set changing silently.
int clock_error(const std::string& id) {
  std::fprintf(stderr,
               "%s reached the %g s generation clock before a count cap "
               "dropped it; tighten the caps\n",
               id.c_str(), kScreenSeconds);
  return 1;
}

ExpectedRow row_of(const Candidate& candidate,
                   const core::OptimizeResult& result) {
  ExpectedRow row;
  row.id = candidate.id;
  row.digest = request_digest(candidate.request);
  row.answer.status = result.status;
  row.answer.cost = result.has_solution() ? result.cost : 0;
  row.nodes = result.stats.nodes_total;
  row.popped = sets_popped(result.stats);
  return row;
}

void write_row(std::ostream& out, const ExpectedRow& row) {
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, row.digest);
  out << row.id << '\t' << digest << '\t'
      << core::to_string(row.answer.status) << '\t' << row.answer.cost
      << '\t' << row.nodes << '\t' << row.popped << '\t' << row.sls_steps
      << '\t' << (row.portfolio_ok ? 1 : 0) << '\t' << row.ilp << '\t'
      << row.role << '\n';
}

/// The ILP verdict on a tiny entry: "agree" when it proves the same
/// answer, "timeout" when it cannot decide, "DISAGREE" otherwise.
std::string ilp_verdict(const core::ProblemSpec& spec,
                        const core::OptimizeResult& csp) {
  ilp::BnbOptions options;
  options.time_limit_seconds = kIlpSeconds;
  const core::OptimizeResult ilp = core::minimize_cost_ilp(spec, options);
  if (ilp.status == core::OptStatus::kOptimal) {
    return csp.status == core::OptStatus::kOptimal && csp.cost == ilp.cost
               ? "agree"
               : "DISAGREE";
  }
  if (ilp.status == core::OptStatus::kInfeasible) {
    return csp.status == core::OptStatus::kInfeasible ? "agree" : "DISAGREE";
  }
  return "timeout";
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kColdCorpus:
      return "cold_corpus";
    case Workload::kServeGrind:
      return "serve_grind";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload* out) {
  for (const Workload w : {Workload::kColdCorpus, Workload::kServeGrind}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

long long sets_popped(const core::OptimizeStats& stats) {
  return stats.combos_tried + stats.combos_skipped_screen +
         stats.combos_skipped_cache + stats.lb_prunes;
}

bool read_expected(const std::string& path, std::vector<ExpectedRow>* rows,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  rows->clear();
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line.rfind("id\t", 0) == 0) {
      continue;
    }
    std::istringstream fields(line);
    ExpectedRow row;
    std::string digest, status, portfolio;
    if (!(fields >> row.id >> digest >> status >> row.answer.cost >>
          row.nodes >> row.popped >> row.sls_steps >> portfolio >> row.ilp >>
          row.role) ||
        !parse_status(status, &row.answer.status)) {
      *error = path + ":" + std::to_string(line_no) + ": malformed row";
      return false;
    }
    row.digest = std::stoull(digest, nullptr, 16);
    row.portfolio_ok = portfolio == "1";
    rows->push_back(std::move(row));
  }
  return true;
}

bool load_pool(Workload workload, const std::vector<ExpectedRow>& rows,
               std::vector<PoolEntry>* pool, std::string* error) {
  std::map<std::string, Candidate> by_id;
  for (Candidate& candidate : candidates_of(workload)) {
    by_id.emplace(candidate.id, std::move(candidate));
  }
  pool->clear();
  for (const ExpectedRow& row : rows) {
    if (row.id.rfind(pool_prefix(workload), 0) != 0) continue;
    const auto it = by_id.find(row.id);
    if (it == by_id.end()) {
      *error = "expected row " + row.id + " names no generated request";
      return false;
    }
    PoolEntry entry;
    entry.id = row.id;
    entry.cls = it->second.cls;
    entry.request = it->second.request;
    if (request_digest(entry.request) != row.digest) {
      *error = "request " + row.id +
               " no longer matches its committed answer; regenerate "
               "data/expected.tsv with --generate-expected";
      return false;
    }
    entry.expected = row.answer;
    entry.portfolio_ok = row.portfolio_ok;
    entry.warmup_only = row.role == "warmup";
    entry.popped = row.popped;
    entry.nodes = row.nodes;
    entry.market_cost = whole_market_cost(entry.request.spec.catalog);
    pool->push_back(std::move(entry));
  }
  if (pool->empty()) {
    *error = std::string("no expected rows for ") + workload_name(workload);
    return false;
  }
  return true;
}

int generate_expected(const std::string& path) {
  std::vector<ExpectedRow> kept;
  const auto solve = [](core::SynthesisRequest request) {
    request.limits.time_limit_seconds = kScreenSeconds;
    const core::OptimizeResult result = core::synthesize(request).result;
    std::fprintf(stderr, "  %-12s %8ld nodes %7lld sets %.3f s\n",
                 core::to_string(result.status).c_str(),
                 result.stats.nodes_total, sets_popped(result.stats),
                 result.stats.seconds);
    return result;
  };
  const auto report = [](const char* cls, int tried, int kept_count) {
    std::fprintf(stderr, "%-16s %4d candidates, %4d kept\n", cls, tried,
                 kept_count);
  };

  // cold_corpus: everything whose deterministic work stays well clear of
  // the guard clock, with heavy entries capped at a fifth; portfolio
  // eligibility needs an identical proved answer under the race and a
  // bounded SLS budget.
  {
    std::map<std::string, std::pair<int, int>> counts;
    std::vector<std::pair<std::string, ExpectedRow>> corpus;  // class, row
    for (const Candidate& candidate : corpus_candidates()) {
      ++counts[candidate.cls].first;
      std::fprintf(stderr, "%s\n", candidate.id.c_str());
      const core::OptimizeResult result = solve(candidate.request);
      if (result.stats.nodes_total > kCorpusNodeCap) continue;
      if (clock_limited(result)) return clock_error(candidate.id);
      if (result.has_solution()) {
        core::require_valid(candidate.request.spec, result.solution);
      }
      ExpectedRow row = row_of(candidate, result);
      const bool proved = result.status == core::OptStatus::kOptimal ||
                          result.status == core::OptStatus::kInfeasible;
      if (proved) {
        core::SynthesisRequest raced = candidate.request;
        raced.portfolio.enabled = true;
        const core::OptimizeResult race = solve(raced);
        row.sls_steps = race.stats.sls_steps;
        const bool bounded = race.stats.sls_steps <= kPortfolioSlsStepCap;
        if (bounded && clock_limited(race)) {
          return clock_error(candidate.id + " (portfolio race)");
        }
        row.portfolio_ok = bounded && race.status == result.status &&
                           race.cost == result.cost;
      }
      if (candidate.cls == std::string("tiny")) {
        row.ilp = ilp_verdict(candidate.request.spec, result);
        if (row.ilp == "DISAGREE") {
          std::fprintf(stderr, "ILP disagrees with the engine on %s\n",
                       candidate.id.c_str());
          return 1;
        }
        if (row.ilp != "agree") continue;
      }
      corpus.emplace_back(candidate.cls, std::move(row));
    }
    std::size_t light = 0;
    for (const auto& [cls, row] : corpus) light += row.popped < kHeavyPopped;
    std::size_t heavy = 0;
    for (auto& [cls, row] : corpus) {
      if (row.popped >= kHeavyPopped && 4 * heavy++ >= light) continue;
      ++counts[cls].second;
      kept.push_back(std::move(row));
    }
    for (const auto& [cls, count] : counts) {
      report(cls.c_str(), count.first, count.second);
    }
  }

  // serve_grind: proved, CSP-bound points; the first kGrindTimed are the
  // timed pool and the next kGrindWarmup only warm the market up.
  {
    int tried = 0;
    std::size_t kept_count = 0;
    for (const Candidate& candidate : grind_candidates()) {
      if (kept_count == kGrindTimed + kGrindWarmup) break;
      ++tried;
      const core::OptimizeResult result = solve(candidate.request);
      if (result.stats.nodes_total > kGrindMaxNodes) continue;
      if (clock_limited(result)) return clock_error(candidate.id);
      const bool proved = result.status == core::OptStatus::kOptimal ||
                          result.status == core::OptStatus::kInfeasible;
      if (!proved || result.stats.nodes_total < kGrindMinNodes) continue;
      ExpectedRow row = row_of(candidate, result);
      if (kept_count >= kGrindTimed) row.role = "warmup";
      kept.push_back(std::move(row));
      ++kept_count;
    }
    report("grind", tried, static_cast<int>(kept_count));
    if (kept_count < kGrindTimed + kGrindWarmup) {
      std::fprintf(stderr, "too few grind points pass the filter\n");
      return 1;
    }
  }

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << "# Expected answers for perfbench; regenerate with\n"
         "#   python3 perfbench/run.py --generate-expected\n"
         "# Cold engine, one lane, default budgets, "
      << kGuardSeconds << " s guard clock.\n"
      << kHeader << '\n';
  for (const ExpectedRow& row : kept) write_row(out, row);
  return out ? 0 : 1;
}

}  // namespace perfbench
