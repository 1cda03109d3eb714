// Seeded request generation for the workloads.
//
// Every request the benchmark can send is a *candidate* with a stable id,
// built by a pure function of fixed generator seeds. `perfbench
// --generate-expected` solves every candidate once on a cold engine, keeps
// those that pass the class filter (deterministic counts only: CSP nodes,
// license sets popped, SLS steps — never the clock; a candidate the counts
// cannot decide before the clock stops the generation), and commits the kept
// ids with their answers to data/expected.tsv. A run loads that file, so
// each workload's request pool is fixed; the run's --seed then decides
// what the program sees: order, which client sends what, and which corpus
// requests race the portfolio.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace perfbench {

/// One request class and why the workload contains it.
struct RequestClass {
  const char* name;
  const char* why;
};

/// Every class, in report order (the reasons are printed with each run).
const std::vector<RequestClass>& request_classes();

/// One candidate request.
struct Candidate {
  std::string id;   ///< stable key, e.g. "corpus/rand-017-n25-s1-m2"
  std::string cls;  ///< a RequestClass name
  ht::core::SynthesisRequest request;
};

/// Wall-clock guard on every generated request. Filters keep each request
/// far below it; a reply that reaches it counts as failed.
inline constexpr double kGuardSeconds = 10.0;

/// cold_corpus pool candidates: paper-suite graphs and seeded random DFGs
/// on the Section 5 catalog, plus tiny Table-1 graphs the faithful ILP can
/// cross-check.
std::vector<Candidate> corpus_candidates();

/// serve_grind pool candidates: one fir16 market swept over area limits
/// and license prices, each a CSP-bound solve.
std::vector<Candidate> grind_candidates();

/// Canonical digest of what a request asks (graph, bounds, market, kind,
/// banned licenses, budgets). Ties a committed answer to the exact request
/// it was computed for, so a changed generator cannot pass silently.
std::uint64_t request_digest(const ht::core::SynthesisRequest& request);

}  // namespace perfbench
