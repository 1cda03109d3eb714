// Shared warm-state snapshots for concurrent same-market serving.
//
// A WarmSnapshot is an immutable, refcounted bundle of everything a
// SynthesisEngine accumulates that is worth keeping between requests of one
// spec family ("market"): the SearchCache's sealed infeasibility proofs and
// the NogoodStore's sealed guarded nogoods. The service publishes at most
// one snapshot per market under an RCU-style pointer swap: a request grabs
// the current pointer (cheap, under the market mutex), adopts it into a
// pooled engine (SynthesisEngine::adopt_warm), solves with NO market lock
// held, and on completion its surviving delta is folded into the next
// snapshot by merge_warm() — a short deterministic merge under the lock.
// Readers holding the old snapshot keep it alive via the shared_ptr
// refcount; nothing is ever mutated in place.
//
// Why sharing is safe: both stores already split entries into an immutable
// sealed tier (the only tier dispatch-path queries may consult) and a
// private live/pending tier. A snapshot is purely sealed-tier content, so
// concurrent engines reading it need no synchronization, and the
// established speed-only contract (warm reuse changes how fast a result is
// found, never which result — DESIGN.md §5) carries over unchanged: which
// snapshot a request happened to see only affects which proofs it can skip
// with, and every proof is complete regardless of which engine produced it.
//
// Merge determinism: merge_warm() canonicalizes with the stores' existing
// compaction rules (cost/signature order, dominance antichain for proofs,
// dedup + seal cap for nogoods), so the merged snapshot is a pure function
// of the merged entry *set*. Completion order still influences which deltas
// have been folded in by a given instant — that is inherent to concurrency
// and harmless under the speed-only contract.
#pragma once

#include <cstdint>
#include <memory>

#include "core/nogood.hpp"
#include "core/search_cache.hpp"

namespace ht::core {

/// Immutable warm-state bundle for one market (spec family).
struct WarmSnapshot {
  std::uint64_t market = 0;   ///< spec_family_fingerprint of the family
  std::uint64_t version = 0;  ///< merges folded in (monotonic per market)
  CacheSnapshot cache;
  NogoodSnapshot nogoods;
};

using WarmSnapshotPtr = std::shared_ptr<const WarmSnapshot>;

/// What one request's engine accumulated on top of its adopted base:
/// SearchCache::export_delta() + NogoodStore::export_delta().
struct WarmDelta {
  CacheSnapshot cache;
  NogoodSnapshot nogoods;
};

/// True when the delta carries nothing worth publishing.
bool warm_delta_empty(const WarmDelta& delta);

/// Folds `delta` into `base` and returns the next snapshot to publish.
/// Returns `base` itself when the delta is empty. When the delta was
/// accumulated under a different spec-family fingerprint or a conflicting
/// offer-area layout, the delta REPLACES the snapshot (mirroring the
/// stores' own begin_op invalidation — the family changed under us).
/// Otherwise proofs/nogoods/memos are unioned and re-canonicalized with
/// the stores' compaction rules, base entries winning ties (keep-first).
WarmSnapshotPtr merge_warm(const WarmSnapshotPtr& base, std::uint64_t market,
                           const WarmDelta& delta);

}  // namespace ht::core
