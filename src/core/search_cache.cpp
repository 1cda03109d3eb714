#include "core/search_cache.hpp"

#include <algorithm>
#include <set>

#include "core/rules.hpp"
#include "dfg/analysis.hpp"
#include "obs/trace.hpp"

namespace ht::core {
namespace {

/// FNV-1a over a stream of integers; order-sensitive.
struct Fnv {
  std::uint64_t state = 1469598103934665603ull;
  void mix(long long value) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffull;
      state *= 1099511628211ull;
    }
  }
};

}  // namespace

// Everything palette-tuple feasibility depends on *except* the bounds in
// the PaletteSignature and which offers exist (existence is handled by the
// per-offer area compatibility check — thinning a catalog does not
// invalidate proofs; see header).
std::uint64_t spec_family_fingerprint(const ProblemSpec& spec) {
  Fnv h;
  const int n = spec.graph.num_ops();
  h.mix(n);
  for (dfg::OpId op = 0; op < n; ++op) {
    h.mix(static_cast<int>(spec.graph.op(op).type));
    for (dfg::OpId parent : spec.graph.parents(op)) h.mix(parent);
    h.mix(-1);  // delimiter
  }
  for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    h.mix(spec.class_latency[static_cast<std::size_t>(cls)]);
  }
  h.mix(spec.with_recovery ? 1 : 0);
  h.mix(spec.max_instances_per_offer);
  h.mix(spec.rules.detection_same_op);
  h.mix(spec.rules.detection_parent_child);
  h.mix(spec.rules.detection_sibling);
  h.mix(spec.rules.sibling_diversity_all_copies);
  h.mix(spec.rules.recovery_same_op);
  h.mix(spec.rules.recovery_close_pairs);
  for (const auto& [a, b] : spec.closely_related) {
    h.mix(a);
    h.mix(b);
  }
  h.mix(spec.catalog.num_vendors());
  return h.state;
}

PaletteSignature signature_of(const ProblemSpec& spec,
                              const Palettes& palettes) {
  PaletteSignature sig;
  for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    std::uint64_t mask = 0;
    for (vendor::VendorId v : palettes[static_cast<std::size_t>(cls)]) {
      mask |= 1ull << v;
    }
    sig.masks[static_cast<std::size_t>(cls)] = mask;
  }
  sig.lambda_detection = spec.lambda_detection;
  sig.lambda_recovery = spec.with_recovery ? spec.lambda_recovery : 0;
  sig.area_limit = spec.area_limit;
  return sig;
}

bool signature_dominates(const PaletteSignature& entry,
                         const PaletteSignature& query) {
  // The entry was proved under *more* resources (superset palettes, looser
  // bounds); the query has no more, so it inherits the proof.
  if (entry.lambda_detection < query.lambda_detection) return false;
  if (entry.lambda_recovery < query.lambda_recovery) return false;
  if (entry.area_limit < query.area_limit) return false;
  for (std::size_t cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    if ((query.masks[cls] & ~entry.masks[cls]) != 0) return false;
  }
  return true;
}

namespace {

/// Total lexicographic order over signatures; any fixed total order works
/// for canonicalization, this one matches the field declaration order.
bool signature_less(const PaletteSignature& a, const PaletteSignature& b) {
  for (std::size_t cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    if (a.masks[cls] != b.masks[cls]) return a.masks[cls] < b.masks[cls];
  }
  if (a.lambda_detection != b.lambda_detection) {
    return a.lambda_detection < b.lambda_detection;
  }
  if (a.lambda_recovery != b.lambda_recovery) {
    return a.lambda_recovery < b.lambda_recovery;
  }
  return a.area_limit < b.area_limit;
}

}  // namespace

bool cache_proof_less(const CacheProof& a, const CacheProof& b) {
  if (a.combo_cost != b.combo_cost) return a.combo_cost < b.combo_cost;
  return signature_less(a.sig, b.sig);
}

// Same keep-first antichain rule as SearchCache::compact_frozen; verdicts
// are unchanged because every dropped proof's dominator survives.
void compact_cache_proofs(std::vector<CacheProof>* proofs) {
  std::vector<CacheProof>& entries = *proofs;
  std::vector<char> drop(entries.size(), 0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = 0; j < entries.size(); ++j) {
      if (j == i || drop[j]) continue;
      if (!signature_dominates(entries[j].sig, entries[i].sig)) continue;
      if (signature_dominates(entries[i].sig, entries[j].sig) && i < j) {
        continue;
      }
      drop[i] = 1;
      break;
    }
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!drop[i]) entries[out++] = entries[i];
  }
  entries.resize(out);
}

std::uint64_t SearchCache::begin_op(const ProblemSpec& spec) {
  HT_TRACE_SPAN("cache/begin_op");
  const std::uint64_t fingerprint = spec_family_fingerprint(spec);
  bool compatible = fingerprint == fingerprint_;
  const std::size_t slots =
      static_cast<std::size_t>(spec.catalog.num_vendors()) *
      dfg::kNumResourceClasses;
  if (compatible) {
    for (vendor::VendorId v = 0; v < spec.catalog.num_vendors(); ++v) {
      for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
        const auto rc = static_cast<dfg::ResourceClass>(cls);
        if (!spec.catalog.offers(v, rc)) continue;
        long long& seen =
            offer_areas_[static_cast<std::size_t>(v) *
                             dfg::kNumResourceClasses +
                         static_cast<std::size_t>(cls)];
        const long long area = spec.catalog.offer(v, rc).area;
        if (seen < 0) {
          seen = area;  // first sighting of this offer in the family
        } else if (seen != area) {
          compatible = false;
        }
      }
    }
  }
  if (!compatible) {
    clear();
    fingerprint_ = fingerprint;
    offer_areas_.assign(slots, -1);
    for (vendor::VendorId v = 0; v < spec.catalog.num_vendors(); ++v) {
      for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
        const auto rc = static_cast<dfg::ResourceClass>(cls);
        if (spec.catalog.offers(v, rc)) {
          offer_areas_[static_cast<std::size_t>(v) *
                           dfg::kNumResourceClasses +
                       static_cast<std::size_t>(cls)] =
              spec.catalog.offer(v, rc).area;
        }
      }
    }
  }
  // Seal: everything recorded so far now has an epoch strictly below the
  // new operation's, so fold the live flood into the frozen antichain and
  // compact it once. This is the only place the O(n^2) dominance sweep
  // runs — once per public operation, never on the dispatch path.
  for (Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    shard.frozen.insert(shard.frozen.end(), shard.live.begin(),
                        shard.live.end());
    shard.live.clear();
    compact_frozen(shard.frozen);
  }
  return ++epoch_;
}

bool SearchCache::entry_dominates(const Entry& entry,
                                  const PaletteSignature& q) {
  return signature_dominates(entry.sig, q);
}

int SearchCache::shard_of(const PaletteSignature& sig) const {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    h = (h ^ sig.masks[cls]) * 1099511628211ull;
  }
  return static_cast<int>(h % kShards);
}

void SearchCache::record(const PaletteSignature& sig, std::uint64_t epoch,
                         std::uint64_t ctx, long long combo_cost) {
  obs::trace_instant("cache/record", "cost", combo_cost);
  Shard& shard = shards_[static_cast<std::size_t>(shard_of(sig))];
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  // Plain O(1) append into the live tier: record sits right after every
  // completed refutation on the dispatch path, so it must not scan the
  // shard (the old dominance-scan-on-insert was the hottest engine-side
  // loop outside the solver). A redundant (dominated) entry changes no
  // query() verdict — whatever it would answer, its dominator answers — so
  // deferring compaction to the next begin_op() seal is sound.
  shard.live.push_back(Entry{sig, combo_cost, epoch, ctx});
}

bool SearchCache::query(const PaletteSignature& sig, std::uint64_t epoch,
                        std::uint64_t ctx, bool frozen_only) const {
  // The adopted base tier is immutable and sealed by construction (it only
  // holds entries that survived a completed operation elsewhere), so it is
  // visible to frozen queries of every epoch without any locking.
  if (base_ != nullptr) {
    for (const CacheProof& proof : base_->proofs) {
      if (signature_dominates(proof.sig, sig)) return true;
    }
  }
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    // Frozen entries were sealed by begin_op(), so entry.epoch < epoch
    // holds for all of them by construction; live entries all carry the
    // current epoch and are visible only to their own context.
    for (const Entry& entry : shard.frozen) {
      if (entry_dominates(entry, sig)) return true;
    }
    if (frozen_only) continue;
    for (const Entry& entry : shard.live) {
      if (entry.epoch == epoch && entry.ctx == ctx &&
          entry_dominates(entry, sig)) {
        return true;
      }
    }
  }
  return false;
}

bool SearchCache::dominated_frozen(const PaletteSignature& sig,
                                   std::uint64_t epoch) const {
  return query(sig, epoch, 0, /*frozen_only=*/true);
}

bool SearchCache::dominated(const PaletteSignature& sig, std::uint64_t epoch,
                            std::uint64_t ctx) const {
  return query(sig, epoch, ctx, /*frozen_only=*/false);
}

// Dominance antichain compaction of the frozen tier: drop an entry when a
// surviving entry dominates it. Frozen entries are all visible to every
// future query, so every query() verdict is unchanged by construction —
// whatever the dropped entry would have answered, its dominator answers.
// The surviving *set* is order-independent for strict dominance (the
// maximal elements survive); mutually dominating pairs have equal
// signatures, so which one the keep-first tie-break retains cannot affect
// any verdict either.
void SearchCache::compact_frozen(std::vector<Entry>& entries) {
  std::vector<char> drop(entries.size(), 0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = 0; j < entries.size(); ++j) {
      if (j == i || drop[j]) continue;
      if (!entry_dominates(entries[j], entries[i].sig)) continue;
      if (entry_dominates(entries[i], entries[j].sig) && i < j) continue;
      drop[i] = 1;
      break;
    }
  }
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!drop[i]) entries[out++] = entries[i];
  }
  entries.resize(out);
}

void SearchCache::finalize_context(std::uint64_t epoch, std::uint64_t ctx,
                                   long long keep_below) {
  HT_TRACE_SPAN("cache/finalize");
  for (Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    std::erase_if(shard.live, [&](const Entry& entry) {
      return entry.epoch == epoch && entry.ctx == ctx &&
             entry.combo_cost >= keep_below;
    });
  }
}

std::size_t SearchCache::size() const {
  std::size_t total = base_ != nullptr ? base_->proofs.size() : 0;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    total += shard.frozen.size() + shard.live.size();
  }
  return total;
}

void SearchCache::clear() {
  base_.reset();  // an incompatible spec family drops the adopted tier too
  for (Shard& shard : shards_) {
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    shard.frozen.clear();
    shard.live.clear();
  }
}

void SearchCache::adopt(std::shared_ptr<const CacheSnapshot> base) {
  clear();
  base_ = std::move(base);
  if (base_ != nullptr) {
    fingerprint_ = base_->fingerprint;
    offer_areas_ = base_->offer_areas;
  } else {
    fingerprint_ = 0;
    offer_areas_.clear();
  }
}

CacheSnapshot SearchCache::export_delta() const {
  CacheSnapshot delta;
  delta.fingerprint = fingerprint_;
  delta.offer_areas = offer_areas_;
  for (const Shard& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    for (const Entry& entry : shard.frozen) {
      delta.proofs.push_back(CacheProof{entry.sig, entry.combo_cost});
    }
    // The live tier has been pruned by finalize_context() to entries whose
    // queue position is dispatched in every run, so exporting it does not
    // leak thread-count-dependent content into the shared snapshot.
    for (const Entry& entry : shard.live) {
      delta.proofs.push_back(CacheProof{entry.sig, entry.combo_cost});
    }
  }
  std::sort(delta.proofs.begin(), delta.proofs.end(), cache_proof_less);
  compact_cache_proofs(&delta.proofs);
  return delta;
}

// ---- StaticScreens ------------------------------------------------------

StaticScreens::StaticScreens(const ProblemSpec& spec, bool enhanced)
    : spec_(spec), enhanced_(enhanced) {
  op_counts_ = spec.graph.ops_per_class();

  // Phase-density ceilings — the engine's historical (legacy) area
  // precheck: the detection phase schedules two copies of every op, the
  // recovery phase one, and each occupies an instance for the class
  // latency.
  for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    if (op_counts_[cls] == 0) continue;
    const int lat = spec.class_latency[static_cast<std::size_t>(cls)];
    int needed = (2 * op_counts_[cls] * lat + spec.lambda_detection - 1) /
                 spec.lambda_detection;
    if (spec.with_recovery) {
      needed = std::max(needed,
                        (op_counts_[cls] * lat + spec.lambda_recovery - 1) /
                            spec.lambda_recovery);
    }
    min_instances_[static_cast<std::size_t>(cls)] = needed;
  }
  if (!enhanced) return;

  // Occupancy-pressure refinement: within one phase, every op *must* hold
  // an instance throughout [ALAP start, ASAP start + latency - 1]; the
  // peak of that mandatory profile is a lower bound on concurrent
  // instances that phase-density ceilings miss on window-constrained
  // graphs. Detection holds both NC and RC (same windows), hence weight 2.
  const std::vector<int> latencies = spec.op_latencies();
  const auto add_pressure = [&](int lambda, int weight) {
    const std::vector<int> asap = dfg::asap_levels(spec.graph, latencies);
    const std::vector<int> alap =
        dfg::alap_levels(spec.graph, lambda, latencies);
    std::array<std::vector<int>, dfg::kNumResourceClasses> profile;
    for (auto& p : profile) p.assign(static_cast<std::size_t>(lambda) + 1, 0);
    for (dfg::OpId op = 0; op < spec.graph.num_ops(); ++op) {
      const int cls = static_cast<int>(
          dfg::resource_class_of(spec.graph.op(op).type));
      const int lo = alap[static_cast<std::size_t>(op)];
      const int hi = asap[static_cast<std::size_t>(op)] +
                     latencies[static_cast<std::size_t>(op)] - 1;
      for (int t = lo; t <= std::min(hi, lambda); ++t) {
        profile[static_cast<std::size_t>(cls)][static_cast<std::size_t>(t)] +=
            weight;
      }
    }
    for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
      for (int t = 1; t <= lambda; ++t) {
        min_instances_[static_cast<std::size_t>(cls)] = std::max(
            min_instances_[static_cast<std::size_t>(cls)],
            profile[static_cast<std::size_t>(cls)][static_cast<std::size_t>(
                t)]);
      }
    }
  };
  add_pressure(spec.lambda_detection, 2);
  if (spec.with_recovery) add_pressure(spec.lambda_recovery, 1);

  // Greedy conflict cliques for the Hall-style diversity screen. Members
  // of one clique must all receive distinct vendors; the members of any
  // class subset T draw theirs from the union of T's palettes. Per-class
  // clique bounds are already guaranteed by enumerate_palettes' minimum
  // sizes, so the value here is in *cross-class* cliques (e.g. an ALU copy
  // conflicting with adder and multiplier copies).
  const int n = spec.graph.num_ops();
  const std::vector<VendorConflict> conflicts = vendor_conflicts(spec);
  const std::vector<std::vector<int>> adjacency =
      conflict_adjacency(spec, conflicts);
  const auto class_of_copy = [&](int copy) {
    return static_cast<int>(
        dfg::resource_class_of(spec.graph.op(copy % n).type));
  };
  const auto is_adjacent = [&](int a, int b) {
    const auto& list = adjacency[static_cast<std::size_t>(a)];
    return std::find(list.begin(), list.end(), b) != list.end();
  };
  std::vector<int> order;
  for (int c = 0; c < static_cast<int>(adjacency.size()); ++c) {
    if (!adjacency[static_cast<std::size_t>(c)].empty()) order.push_back(c);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const std::size_t da = adjacency[static_cast<std::size_t>(a)].size();
    const std::size_t db = adjacency[static_cast<std::size_t>(b)].size();
    if (da != db) return da > db;
    return a < b;
  });
  std::set<std::vector<int>> seen;
  for (int seed : order) {
    std::vector<int> clique = {seed};
    for (int candidate : order) {
      if (candidate == seed) continue;
      bool compatible = true;
      for (int member : clique) {
        if (!is_adjacent(candidate, member)) {
          compatible = false;
          break;
        }
      }
      if (compatible) clique.push_back(candidate);
    }
    std::vector<int> key = clique;
    std::sort(key.begin(), key.end());
    if (!seen.insert(std::move(key)).second) continue;
    std::array<int, dfg::kNumResourceClasses> counts{};
    for (int member : clique) {
      ++counts[static_cast<std::size_t>(class_of_copy(member))];
    }
    clique_counts_.push_back(counts);
  }
}

bool StaticScreens::refutes(const Palettes& palettes) const {
  std::array<std::uint64_t, dfg::kNumResourceClasses> masks{};
  long long area_lb = 0;
  for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    const std::size_t c = static_cast<std::size_t>(cls);
    if (op_counts_[cls] == 0) continue;
    const auto rc = static_cast<dfg::ResourceClass>(cls);
    const auto& palette = palettes[c];
    long long min_area = 0;
    for (vendor::VendorId v : palette) {
      masks[c] |= 1ull << v;
      const long long area = spec_.catalog.offer(v, rc).area;
      if (min_area == 0 || area < min_area) min_area = area;
    }
    // Area lower bound: every needed concurrent instance costs at least
    // the cheapest-area offer in the class palette.
    area_lb += static_cast<long long>(min_instances_[c]) * min_area;
    if (area_lb > spec_.area_limit) return true;
    // Capacity: concurrent instances are capped per (vendor, class) offer.
    if (enhanced_ &&
        static_cast<long long>(min_instances_[c]) >
            static_cast<long long>(spec_.instance_cap(rc)) *
                static_cast<long long>(palette.size())) {
      return true;
    }
  }
  for (const auto& counts : clique_counts_) {
    for (unsigned subset = 1;
         subset < (1u << dfg::kNumResourceClasses); ++subset) {
      int need = 0;
      std::uint64_t available = 0;
      for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
        if (!(subset & (1u << cls))) continue;
        need += counts[static_cast<std::size_t>(cls)];
        available |= masks[static_cast<std::size_t>(cls)];
      }
      if (need > __builtin_popcountll(available)) return true;
    }
  }
  return false;
}

}  // namespace ht::core
