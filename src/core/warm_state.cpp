#include "core/warm_state.hpp"

#include <algorithm>
#include <utility>

namespace ht::core {
namespace {

/// Same offer-area compatibility rule as the stores' begin_op: an offer
/// seen by both sides must have the same area; offers only one side has
/// seen union in. Layout lengths differ only across vendor-count changes,
/// which the fingerprint already rules incompatible.
bool merge_offer_areas(const std::vector<long long>& base,
                       const std::vector<long long>& delta,
                       std::vector<long long>* merged) {
  if (base.size() != delta.size()) return false;
  merged->resize(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (base[i] >= 0 && delta[i] >= 0 && base[i] != delta[i]) return false;
    (*merged)[i] = base[i] >= 0 ? base[i] : delta[i];
  }
  return true;
}

WarmSnapshotPtr snapshot_from_delta(std::uint64_t market,
                                    std::uint64_t version,
                                    const WarmDelta& delta) {
  auto next = std::make_shared<WarmSnapshot>();
  next->market = market;
  next->version = version;
  next->cache = delta.cache;     // export_delta output: already canonical
  next->nogoods = delta.nogoods;
  return next;
}

}  // namespace

bool warm_delta_empty(const WarmDelta& delta) {
  return delta.cache.proofs.empty() && delta.nogoods.entries.empty();
}

WarmSnapshotPtr merge_warm(const WarmSnapshotPtr& base, std::uint64_t market,
                           const WarmDelta& delta) {
  if (warm_delta_empty(delta)) return base;
  if (base == nullptr) return snapshot_from_delta(market, 1, delta);

  // Compatibility: both sub-deltas were accumulated by one engine under one
  // begin_op discipline, so their fingerprints agree with each other; check
  // against the published snapshot. A mismatch means the family structure
  // changed (or an offer's area did) — the old warm state is worthless for
  // the new family, so the delta replaces it, exactly like the stores drop
  // themselves on an incompatible begin_op.
  std::vector<long long> cache_areas;
  std::vector<long long> nogood_areas;
  const bool compatible =
      base->cache.fingerprint == delta.cache.fingerprint &&
      base->nogoods.fingerprint == delta.nogoods.fingerprint &&
      merge_offer_areas(base->cache.offer_areas, delta.cache.offer_areas,
                        &cache_areas) &&
      merge_offer_areas(base->nogoods.offer_areas, delta.nogoods.offer_areas,
                        &nogood_areas);
  if (!compatible) {
    return snapshot_from_delta(market, base->version + 1, delta);
  }

  auto next = std::make_shared<WarmSnapshot>();
  next->market = market;
  next->version = base->version + 1;

  next->cache.fingerprint = base->cache.fingerprint;
  next->cache.offer_areas = std::move(cache_areas);
  // Base proofs first so the keep-first antichain rule retains the already
  // published entry of any mutually-dominating (equal-signature) pair.
  next->cache.proofs.reserve(base->cache.proofs.size() +
                             delta.cache.proofs.size());
  next->cache.proofs = base->cache.proofs;
  next->cache.proofs.insert(next->cache.proofs.end(),
                            delta.cache.proofs.begin(),
                            delta.cache.proofs.end());
  std::stable_sort(next->cache.proofs.begin(), next->cache.proofs.end(),
                   cache_proof_less);
  compact_cache_proofs(&next->cache.proofs);

  next->nogoods.fingerprint = base->nogoods.fingerprint;
  next->nogoods.offer_areas = std::move(nogood_areas);
  next->nogoods.entries = base->nogoods.entries;
  next->nogoods.entries.insert(next->nogoods.entries.end(),
                               delta.nogoods.entries.begin(),
                               delta.nogoods.entries.end());
  canonicalize_sealed_nogoods(&next->nogoods.entries);
  return next;
}

}  // namespace ht::core
