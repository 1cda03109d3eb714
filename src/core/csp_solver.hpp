// Complete scheduler/binder over a fixed vendor palette, with
// conflict-directed search.
//
// Given a ProblemSpec and, per resource class, the set ("palette") of
// vendors whose licenses the design may use, this solver decides whether a
// schedule + binding exists that satisfies *all* constraints — dependence
// order, latency windows, every vendor-diversity rule, per-instance
// exclusivity and the area bound — and produces one if so.
//
// It is a classic CSP search: one variable per operation copy (NC/RC and,
// when enabled, recovery), values are (cycle, vendor) pairs, instances are
// never branched on because instances of one (vendor, class) offer are
// interchangeable — a per-cycle usage count plus a running peak is enough,
// and instance indices are assigned after the fact. Propagation maintains
// per-copy cycle windows (ASAP/ALAP tightened by assigned same-schedule
// neighbors) and per-copy forbidden-vendor counts from the conflict graph.
//
// On top of the chronological core the search is conflict-directed (see
// DESIGN.md "Conflict-directed CSP search"):
//
//  * conflict-directed backjumping — every domain wipeout carries the set
//    of assigned copies actually responsible, and backtracking unwinds
//    straight past decisions that set is independent of;
//  * nogood learning — small conflict sets are recorded as (copy, cycle,
//    vendor) nogoods, re-checked during the same solve through
//    true-literal counters and exportable via CspResult::learned for reuse
//    against sibling palettes (core/nogood.hpp guards them with the
//    palette signature they were proved under);
//  * Luby restarts — with restart_base > 0 the search restarts on a Luby
//    schedule, re-descending with a seed-dependent vendor preference while
//    keeping everything it has learned (first descent always canonical);
//  * deterministic subtree splitting — with subtree_split > 1 the root
//    decision level is partitioned into disjoint value blocks solved
//    independently (optionally on a thread pool); the committed result is
//    the lowest-index solved block, so any lane count is bit-identical to
//    sequential execution.
//
// Within its node budget the search is complete: kInfeasible is a proof.
// Backjumps skip only regions a recorded conflict set proves solution-free
// and learned nogoods are sound deductions from the spec, so completeness
// (and the identity of the first solution found) is preserved. The exact
// optimizer exploits this for cheapest-first license enumeration; the
// heuristic optimizer runs it with small budgets and restarts.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/solution.hpp"
#include "util/thread_pool.hpp"

namespace ht::core {

/// One literal of a nogood: "copy is assigned vendor `vendor` at a cycle
/// in [cycle_lo, cycle_hi]". Copies index the solver's variable order
/// (kind-major, op-minor — a pure function of the spec, never of the
/// palette), so literals are meaningful across palettes of one spec family.
struct NogoodLit {
  int copy = 0;
  int vendor = 0;
  int cycle_lo = 0;
  int cycle_hi = 0;

  bool operator==(const NogoodLit&) const = default;
};

/// A conjunction of literals that no solution satisfies. Learned under some
/// palette/bounds; core/nogood.hpp attaches the guard signature that scopes
/// where it may be reused.
struct CspNogood {
  std::vector<NogoodLit> lits;

  bool operator==(const CspNogood&) const = default;
};

/// The one per-palette seed schedule every stochastic component draws
/// from. `palette_seed(seed, k)` is a SplitMix64-style mix of the request
/// seed with stream index `k`; streams are statistically independent and a
/// pure function of (seed, k), never of evaluation order or thread count.
/// Consumers and their stream indices:
///
///  * the engine's greedy warm-up and the heuristic CSP restart rotation
///    use k = palette_index + 1 (the full-market probe is palette -1,
///    hence the shift) — so every license set gets its own phase schedule
///    instead of the historical single request-wide seed;
///  * the SLS binder (core/sls_binder.hpp) uses k = restart + 1 on a
///    member-salted seed;
///  * the exact CSP path keeps CspOptions::seed = 0 (no restarts are
///    scheduled there, and seed 0 keeps every descent canonical).
inline std::uint64_t palette_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct CspOptions {
  long max_nodes = 500'000;
  double time_limit_seconds = 10.0;
  /// Restart phase selection: descents after the first reorder value
  /// enumeration with a seed-dependent vendor preference (seed 0 keeps the
  /// canonical (area_delta, cycle, vendor) order on every descent). Has no
  /// effect unless restart_base > 0 — in particular the first descent, and
  /// therefore any run without restarts, is canonical for every seed.
  std::uint64_t seed = 0;
  /// Optional cooperative stop signal, polled inside the node loop (same
  /// cadence as the time check). A cancelled run reports kCancelled and
  /// proves nothing.
  const util::CancelToken* cancel = nullptr;

  /// Conflict-directed mode: backjumping + nogood recording. Off reproduces
  /// the chronological search node for node (A/B baselines).
  bool learning = true;
  /// Luby restart unit in nodes; 0 disables restarts. Segment i of a solve
  /// gets restart_base * luby(i) nodes before the search re-descends.
  long restart_base = 0;
  /// Split the root decision level into (up to) this many disjoint value
  /// blocks solved independently; <= 1 solves in one piece. The block
  /// decomposition depends only on the spec and palette, never on lanes.
  int subtree_split = 1;
  /// Execution lanes for subtree blocks (1 = sequential). Any value yields
  /// bit-identical results: the winner is the lowest-index solved block.
  int split_threads = 1;
  /// Nogoods proved applicable to this palette by the caller (frozen tier
  /// of a NogoodStore); checked during search exactly like learned ones.
  const std::vector<CspNogood>* imported = nullptr;
};

struct CspResult {
  enum class Status {
    kFeasible,    ///< solution found (and validated by the caller)
    kInfeasible,  ///< proof: no solution exists under this palette
    kNodeLimit,   ///< gave up; nothing proved
    kTimeout,     ///< gave up; nothing proved
    kCancelled,   ///< stopped by the cancel token; nothing proved
  };
  Status status = Status::kNodeLimit;
  Solution solution;
  long nodes = 0;
  long backjumps = 0;  ///< frames skipped past by conflict-directed jumps
  long restarts = 0;   ///< Luby re-descents taken
  /// Counter-bucket entries examined by the nogood propagator (0 with
  /// learning off). The reference scan these replace examined every nogood
  /// containing the candidate's copy.
  long watch_visits = 0;
  /// Nogoods learned this solve (empty with learning off). Deterministic
  /// for kFeasible / kInfeasible / kNodeLimit outcomes; cleared for
  /// timeout / cancellation, whose truncation point is wall-clock-dependent
  /// and must never leak into deterministic state.
  std::vector<CspNogood> learned;
};

/// One vendor palette per resource class (indexed by ResourceClass value).
using Palettes = std::array<std::vector<vendor::VendorId>, dfg::kNumResourceClasses>;

/// Requires spec.validate() to pass, which also bounds lambda and the op
/// count to the packed formats of the inner loop (core/problem.hpp).
CspResult schedule_and_bind(const ProblemSpec& spec, const Palettes& palettes,
                            const CspOptions& options = {});

namespace detail {

/// schedule_and_bind with every nogood check answered by the reference
/// scan (each stored nogood touching the candidate's copy, in id order)
/// instead of the true-literal counters. The two must agree bit for bit —
/// status, nodes, backjumps, learned nogoods, first solution; only
/// watch_visits differs (always 0 here). For tests of that contract only.
CspResult solve_with_reference_scan(const ProblemSpec& spec,
                                    const Palettes& palettes,
                                    const CspOptions& options = {});

}  // namespace detail

}  // namespace ht::core
