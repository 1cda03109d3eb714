// Prune-before-solve machinery for the license-set search.
//
// Two layers, both producing *complete* infeasibility proofs so the
// cheapest-first optimality argument is untouched:
//
//  - SearchCache: a cross-palette infeasibility dominance cache. When the
//    complete CSP (or a static screen) refutes a palette tuple, the tuple's
//    per-class vendor bitmasks plus the latency/area bounds it was refuted
//    under are recorded. A later tuple is skipped when some recorded
//    refutation dominates it: per class the query's mask is a subset of the
//    entry's, and the query's bounds are no looser. This is the CSP
//    monotonicity lemma — removing vendors (or tightening λ/area) only
//    removes values from the search, so infeasibility is inherited.
//    Entries survive across engine operations, which is where the hits
//    come from: within a single cheapest-first sweep a strict subset of a
//    refuted tuple is always *cheaper* and therefore already visited, but
//    reoptimize() (thinned market), repeated minimize() calls, tighter
//    frontier points and λ re-splits re-pose dominated tuples constantly.
//
//  - StaticScreens: pure spec+palette feasibility tests run before any CSP
//    dispatch — an occupancy-pressure area lower bound, a per-class
//    instance-capacity check, and a Hall-style vendor-diversity bound over
//    greedy conflict cliques.
//
// Determinism contract (see DESIGN.md "Pruned license-set search"): skips
// consult only entries *sealed* by a previous engine operation; an
// operation's own entries become skip-visible only after finalize_context()
// prunes them to the deterministically-dispatched prefix (combo cost below
// the final incumbent). Screens are pure functions and need no scoping.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "core/csp_solver.hpp"

namespace ht::core {

/// Everything CSP feasibility of a palette tuple depends on, besides the
/// spec family (graph/rules/latencies/catalog areas) the cache is keyed to.
struct PaletteSignature {
  std::array<std::uint64_t, dfg::kNumResourceClasses> masks{};
  int lambda_detection = 0;
  int lambda_recovery = 0;  ///< 0 when the spec has no recovery phase
  long long area_limit = 0;
};

PaletteSignature signature_of(const ProblemSpec& spec,
                              const Palettes& palettes);

/// True when `entry` (a signature something was proved under) dominates
/// `query`: the entry had at-least-as-loose bounds and per-class superset
/// palettes, so by CSP monotonicity anything infeasible (or any nogood
/// deduced) under the entry carries over to the query.
bool signature_dominates(const PaletteSignature& entry,
                         const PaletteSignature& query);

/// Hashes everything palette-tuple feasibility depends on *except* the
/// latency bounds, the area limit, license costs and which offers exist:
/// those either live in the PaletteSignature (bounds) or are handled by the
/// SearchCache's per-offer area compatibility check. Shared key of the
/// dominance cache and the NogoodStore (core/nogood.hpp).
std::uint64_t spec_family_fingerprint(const ProblemSpec& spec);

/// One sealed infeasibility proof, stripped of epoch/ctx scoping: snapshot
/// entries are by construction sealed before any operation that reads them,
/// so the scoping tags carry no information across engines.
struct CacheProof {
  PaletteSignature sig;
  long long combo_cost = 0;
};

/// Immutable always-sealed cache tier shared read-only between concurrent
/// engines serving the same spec family. Proofs are kept as a compacted
/// dominance antichain in canonical (combo_cost, signature) order so merges
/// are deterministic regardless of which engine produced what.
struct CacheSnapshot {
  std::uint64_t fingerprint = 0;       ///< spec_family_fingerprint
  std::vector<long long> offer_areas;  ///< union layout, -1 = unseen
  std::vector<CacheProof> proofs;
};

/// Canonical order of snapshot proofs: by combo cost, then by signature
/// fields. Used by export_delta() and by snapshot merges so the published
/// tier has one deterministic representation per entry set.
bool cache_proof_less(const CacheProof& a, const CacheProof& b);

/// Compacts `proofs` to a dominance antichain, keeping the first of any
/// mutually-dominating pair (same keep-first rule as the frozen tier).
void compact_cache_proofs(std::vector<CacheProof>* proofs);

/// Thread-safe store of complete infeasibility proofs, sharded over
/// reader/writer mutexes (queries take shared locks only).
class SearchCache {
 public:
  SearchCache() = default;

  /// Marks the start of a public engine operation: seals every entry
  /// recorded so far (making it visible to dominance skips) and drops the
  /// whole store when `spec` is structurally incompatible with the spec
  /// family the entries were proved under (different graph, rules, class
  /// latencies, recovery mode, instance caps, vendor count, or a changed
  /// area for an offer both catalogs carry — a *thinned* catalog with
  /// unchanged areas keeps every entry, which is what makes reoptimize()
  /// fast). Not thread-safe: public engine operations are serialized.
  /// Returns the epoch the new operation runs under.
  std::uint64_t begin_op(const ProblemSpec& spec);

  /// Records a complete infeasibility proof for `sig`, tagged with the
  /// producing operation's epoch, sub-search context, and the license cost
  /// of the refuted tuple. Never call for node-limit / timeout / cancelled
  /// outcomes — those prove nothing.
  void record(const PaletteSignature& sig, std::uint64_t epoch,
              std::uint64_t ctx, long long combo_cost);

  /// True when an entry sealed before `epoch` dominates `sig`. This is the
  /// only query the dispatch loop may use: the frozen tier is identical
  /// for every thread count.
  bool dominated_frozen(const PaletteSignature& sig,
                        std::uint64_t epoch) const;

  /// Post-search query for reclassifying truncated (inconclusive)
  /// evaluations: frozen entries plus the operation's own context. Call
  /// only after finalize_context() has pruned the context to its
  /// deterministic prefix.
  bool dominated(const PaletteSignature& sig, std::uint64_t epoch,
                 std::uint64_t ctx) const;

  /// Drops this context's entries with combo cost >= keep_below. Every
  /// surviving entry came from a queue position that is dispatched in
  /// every run (the cheapest-first queue cannot stop while sets cheaper
  /// than the final incumbent remain), so the sealed tier stays
  /// deterministic across thread counts.
  void finalize_context(std::uint64_t epoch, std::uint64_t ctx,
                        long long keep_below);

  /// Installs `base` as an always-sealed read-only tier underneath this
  /// store, dropping everything the store held before. Frozen queries scan
  /// the base tier in addition to the store's own frozen entries; the
  /// store's family fingerprint and offer-area layout are adopted from the
  /// base, so a later begin_op() with an incompatible spec drops the base
  /// together with everything else (clear() releases the reference).
  /// Pass nullptr to reset to a cold store. Not thread-safe: call between
  /// engine operations only.
  void adopt(std::shared_ptr<const CacheSnapshot> base);

  /// Exports the store's *own* surviving entries (frozen + live tiers —
  /// the adopted base is excluded) in canonical order. Call after the
  /// operation's finalize_context() so the live tier has been pruned to its
  /// deterministically-dispatched prefix.
  CacheSnapshot export_delta() const;

  std::size_t size() const;
  void clear();

 private:
  struct Entry {
    PaletteSignature sig;
    long long combo_cost = 0;
    std::uint64_t epoch = 0;
    std::uint64_t ctx = 0;
  };
  /// Two-tier storage. `frozen` holds entries sealed by begin_op() (their
  /// epoch is strictly below the running operation's), kept as a compacted
  /// dominance antichain — this is the only tier the per-combo
  /// dominated_frozen() dispatch query scans, so it must stay small.
  /// `live` holds the current epoch's flood in append order: record() is a
  /// plain O(1) push_back, finalize_context() prunes a context to its
  /// deterministic prefix by cost, and the next begin_op() folds the
  /// survivors into `frozen` and re-compacts once per operation.
  struct Shard {
    mutable std::shared_mutex mutex;
    std::vector<Entry> frozen;
    std::vector<Entry> live;
  };
  static constexpr int kShards = 16;

  static bool entry_dominates(const Entry& entry, const PaletteSignature& q);
  /// Drops every entry dominated by another surviving entry (mutually
  /// dominating pairs keep the first). Only valid for the frozen tier,
  /// where all entries are visible to all future queries, so dropping a
  /// dominated entry never changes a query() verdict.
  static void compact_frozen(std::vector<Entry>& entries);
  int shard_of(const PaletteSignature& sig) const;
  bool query(const PaletteSignature& sig, std::uint64_t epoch,
             std::uint64_t ctx, bool frozen_only) const;

  std::array<Shard, kShards> shards_;
  /// Adopted always-sealed tier (see adopt()); nullptr when running cold.
  /// Immutable and refcounted, so concurrent engines share one copy.
  std::shared_ptr<const CacheSnapshot> base_;
  std::uint64_t epoch_ = 0;
  /// Structural fingerprint of the spec family; 0 = no family adopted yet.
  std::uint64_t fingerprint_ = 0;
  /// Offer areas seen so far, (vendor * kNumResourceClasses + cls) -> area,
  /// -1 where no offer has been seen. Grown unioning across operations;
  /// any area mismatch on an offer both specs carry invalidates the store.
  std::vector<long long> offer_areas_;
};

/// Static feasibility screens: complete refutations from spec + palette
/// structure alone, no search. `enhanced == false` keeps only the legacy
/// phase-density area bound (the engine's historical precheck), which gives
/// A/B benchmarks a faithful baseline mode.
class StaticScreens {
 public:
  StaticScreens(const ProblemSpec& spec, bool enhanced);

  /// True = proof that no schedule/binding exists under this palette.
  bool refutes(const Palettes& palettes) const;

 private:
  const ProblemSpec& spec_;
  bool enhanced_ = false;
  std::array<int, dfg::kNumResourceClasses> op_counts_{};
  /// Lower bound on concurrent instances of each class (max over phases of
  /// occupancy pressure and phase-density ceilings).
  std::array<int, dfg::kNumResourceClasses> min_instances_{};
  /// Per deduplicated greedy conflict clique: member count per class.
  std::vector<std::array<int, dfg::kNumResourceClasses>> clique_counts_;
};

}  // namespace ht::core
