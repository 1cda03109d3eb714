#include "core/csp_solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <unordered_set>

#include "core/rules.hpp"
#include "core/skyline.hpp"
#include "dfg/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fast_reset.hpp"
#include "util/mask_kernels.hpp"

namespace ht::core {
namespace {

using Clock = std::chrono::steady_clock;

/// Per-solve ceiling on learned nogoods. CBJ keeps working past the cap;
/// only recording stops, so the cap bounds memory without hurting
/// completeness.
constexpr int kLearnCap = 512;

/// Luby restart sequence 1,1,2,1,1,2,4,1,... (1-indexed), iteratively.
long luby(long i) {
  for (;;) {
    long k = 1;
    while (((1l << k) - 1) < i) ++k;
    if (((1l << k) - 1) == i) return 1l << (k - 1);
    i -= (1l << (k - 1)) - 1;
  }
}

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash_nogood(const CspNogood& nogood) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const NogoodLit& lit : nogood.lits) {
    mix(static_cast<std::uint64_t>(lit.copy));
    mix(static_cast<std::uint64_t>(lit.vendor));
    mix(static_cast<std::uint64_t>(lit.cycle_lo));
    mix(static_cast<std::uint64_t>(lit.cycle_hi));
  }
  return h;
}

struct CopyMeta {
  CopyKind kind;
  dfg::OpId op;
  int cls;      // resource class index
  int phase;    // 0 = detection, 1 = recovery
  int latency;  // cycles the op occupies its instance
};

/// The root decision level of a solve, precomputed for subtree splitting:
/// which copy the canonical heuristic branches on first and its full
/// (cycle, vendor) value list under the empty assignment. A pure function
/// of spec + palette, so every lane count sees the same decomposition.
struct RootPlan {
  int copy = -1;
  std::vector<std::pair<int, int>> values;  // (cycle, vendor), canonical
  bool infeasible = false;
};

class Search {
 public:
  Search(const ProblemSpec& spec, const Palettes& palettes,
         const CspOptions& options, bool reference_scan)
      : spec_(spec),
        options_(options),
        learning_(options.learning),
        reference_scan_(reference_scan) {
    util::check_spec(
        spec.catalog.num_vendors() <= kMaxVendors,
        "csp: catalog exceeds kMaxVendors (see core/problem.hpp)");
    build_copies();
    build_windows();
    build_conflicts();
    build_palette_masks(palettes);
    const int v = spec.catalog.num_vendors();
    forbid_count_.assign(copies_.size() * static_cast<std::size_t>(v), 0);
    assigned_cycle_.assign(copies_.size(), -1);
    assigned_vendor_.assign(copies_.size(), -1);
    allowed_mask_.resize(copies_.size());
    unassigned_pos_.resize(copies_.size());
    for (std::size_t c = 0; c < copies_.size(); ++c) {
      allowed_mask_[c] =
          palette_mask_[static_cast<std::size_t>(copies_[c].cls)];
      unassigned_pos_[c] = static_cast<int>(c);
      unassigned_.push_back(static_cast<int>(c));
    }
    const std::size_t usage_size =
        2ull * static_cast<std::size_t>(v) * dfg::kNumResourceClasses *
        static_cast<std::size_t>(max_lambda_);
    usage_.assign(usage_size, 0);
    usage_vstride_ = dfg::kNumResourceClasses * max_lambda_;
    peak_.assign(static_cast<std::size_t>(v) * dfg::kNumResourceClasses, 0);
    for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
      class_cap_[static_cast<std::size_t>(cls)] =
          spec.instance_cap(static_cast<dfg::ResourceClass>(cls));
    }
    // The value arena is sized for the deepest possible search up front:
    // dfs holds spans into it across recursive calls, so it must never
    // reallocate mid-search. One contiguous block, depth-major; per-depth
    // capacity is the largest root domain of any copy (windows and masks
    // only ever shrink during search).
    std::size_t value_cap = 0;
    for (std::size_t c = 0; c < copies_.size(); ++c) {
      const std::size_t window = est_[c] <= lst_[c]
                                     ? static_cast<std::size_t>(lst_[c] -
                                                                est_[c] + 1)
                                     : 0;
      const std::size_t vendors = static_cast<std::size_t>(
          __builtin_popcountll(
              palette_mask_[static_cast<std::size_t>(copies_[c].cls)]));
      value_cap = std::max(value_cap, window * vendors);
    }
    value_cap_ = value_cap;
    value_arena_.resize((copies_.size() + 1) * value_cap_);
    for (int i = 0; i < kMaxVendors; ++i) vendor_rank_[i] = i;
    // Packed formats: nogood literal ranges pack cycles into 15-bit lanes
    // and selection packs (degree, copy) into one 40-bit key.
    // ProblemSpec::validate bounds lambda and the op count so both fit.
    util::check_spec(max_lambda_ < util::kSwarCycleLimit,
                     "csp: lambda must be below util::kSwarCycleLimit");
    util::check_spec(spec.graph.num_ops() < kMaxOps,
                     "csp: op count must be below kMaxOps");
    select_static_.resize(copies_.size());
    select_key_.resize(copies_.size());
    for (std::size_t c = 0; c < copies_.size(); ++c) {
      util::check_internal(degree_[c] <= 0xFFFFF,
                           "csp: degree exceeds the selection key");
      select_static_[c] =
          ((0xFFFFFull - static_cast<std::uint64_t>(degree_[c])) << 20) |
          static_cast<std::uint64_t>(c);
      select_key_[c] = select_key_of(c);
    }
    if (learning_) {
      words_ = (copies_.size() + 63) / 64;
      conf_pool_.assign(copies_.size() + 1,
                        util::FastResetBitset(copies_.size()));
      jump_conf_.assign(words_, 0);
      assigned_bits_.assign(words_, 0);
      occ_.assign(usage_size * words_, 0);
      forbid_setter_.assign(forbid_count_.size(), -1);
      est_setter_.assign(copies_.size(), -1);
      lst_setter_.assign(copies_.size(), -1);
      by_copy_.resize(copies_.size());
      by_copy_packed_.resize(copies_.size());
      cnt_buckets_.resize(copies_.size() * kMaxVendors);
      // The trail holds raw pointers into ng_count_; learned nogoods grow
      // it mid-search, so reserve the worst case (imported + learn cap) up
      // front — growth within capacity never reallocates.
      const std::size_t max_nogoods =
          (options.imported != nullptr ? options.imported->size() : 0) +
          static_cast<std::size_t>(kLearnCap);
      ng_count_.reserve(max_nogoods);
      ng_entries_.reserve(max_nogoods);
      if (options.imported != nullptr) {
        for (const CspNogood& nogood : *options.imported) {
          if (!nogood_in_range(nogood)) continue;
          nogood_hashes_.insert(hash_nogood(nogood));
          add_nogood(nogood);
        }
        imported_count_ = static_cast<int>(nogoods_.size());
      }
    }
  }

  void set_internal_cancel(const util::CancelToken* token) {
    internal_cancel_ = token;
  }

  /// Restricts the root decision level to the given value block (subtree
  /// splitting). The solve then proves or refutes "a solution exists with
  /// the root copy taking one of these values" — never a full nogood on the
  /// root copy, so learning is suppressed at depth 0 when a restriction is
  /// active.
  void restrict_root(int copy, std::vector<std::pair<int, int>> values) {
    root_copy_ = copy;
    root_values_ = std::move(values);
    std::sort(root_values_.begin(), root_values_.end());
  }

  RootPlan plan_root() {
    RootPlan plan;
    for (std::size_t c = 0; c < copies_.size(); ++c) {
      if (est_[c] > lst_[c] ||
          palette_mask_[static_cast<std::size_t>(copies_[c].cls)] == 0) {
        plan.infeasible = true;
        return plan;
      }
    }
    const int copy = select_variable();
    if (copy < 0) return plan;  // no variables: trivially solvable
    plan.copy = copy;
    const ValueSpan values = enumerate_values(copy, 0, nullptr);
    for (const Value& value : values) {
      plan.values.emplace_back(value.cycle, value.vendor);
    }
    return plan;
  }

  CspResult run() {
    CspResult result;
    deadline_ = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        options_.time_limit_seconds));
    // Static infeasibility: a copy with an empty window or empty palette.
    for (std::size_t c = 0; c < copies_.size(); ++c) {
      if (est_[c] > lst_[c] ||
          palette_mask_[static_cast<std::size_t>(copies_[c].cls)] == 0) {
        result.status = CspResult::Status::kInfeasible;
        return result;
      }
    }
    Outcome outcome;
    for (;;) {
      segment_limit_ =
          options_.restart_base > 0
              ? nodes_ + options_.restart_base * luby(segment_index_ + 1)
              : 0;
      outcome = dfs(0);
      if (outcome != Outcome::kRestart) break;
      // A restart keeps every learned nogood; only the descent order
      // changes (seed-dependent vendor preference for the next segment).
      ++restarts_;
      ++segment_index_;
      apply_rotation();
    }
    result.nodes = nodes_;
    result.backjumps = backjumps_;
    result.restarts = restarts_;
    result.watch_visits = watch_visits_;
    switch (outcome) {
      case Outcome::kSolved:
        result.status = CspResult::Status::kFeasible;
        result.solution = extract_solution();
        break;
      case Outcome::kExhausted:
        result.status = CspResult::Status::kInfeasible;
        break;
      case Outcome::kNodeLimit:
        result.status = CspResult::Status::kNodeLimit;
        break;
      case Outcome::kTimeout:
        result.status = CspResult::Status::kTimeout;
        break;
      case Outcome::kCancelled:
        result.status = CspResult::Status::kCancelled;
        break;
      case Outcome::kRestart:
        util::check_internal(false, "csp: restart escaped the run loop");
        break;
    }
    // Export what this solve learned — but only for outcomes whose
    // truncation point is deterministic. A timeout or cancellation stops at
    // a wall-clock-dependent node, so its nogood set must never leak into
    // state that is replayed deterministically.
    if (result.status == CspResult::Status::kFeasible ||
        result.status == CspResult::Status::kInfeasible ||
        result.status == CspResult::Status::kNodeLimit) {
      result.learned.assign(
          nogoods_.begin() + imported_count_, nogoods_.end());
    }
    // One aggregated sample per solve: count covers every blocking check,
    // duration extrapolates the 1-in-64 clocked subset (see assign()).
    if (record_obs_ && ng_checks_ > 0) {
      obs::record_stage(obs::Stage::kNogoodPropagation, ng_sampled_ns_ * 64,
                        ng_checks_);
    }
    return result;
  }

 private:
  enum class Outcome {
    kSolved,
    kExhausted,
    kNodeLimit,
    kTimeout,
    kCancelled,
    kRestart,
  };

  // ---- model construction ---------------------------------------------
  void build_copies() {
    const int n = spec_.graph.num_ops();
    std::vector<CopyKind> kinds = {CopyKind::kNormal, CopyKind::kRedundant};
    if (spec_.with_recovery) kinds.push_back(CopyKind::kRecovery);
    for (CopyKind kind : kinds) {
      for (dfg::OpId op = 0; op < n; ++op) {
        const int cls = static_cast<int>(
            dfg::resource_class_of(spec_.graph.op(op).type));
        const int phase = kind == CopyKind::kRecovery ? 1 : 0;
        copy_of_[{kind, op}] = static_cast<int>(copies_.size());
        copies_.push_back(
            CopyMeta{kind, op, cls, phase, spec_.op_latency(op)});
      }
    }
    max_lambda_ = std::max(spec_.lambda_detection,
                           spec_.with_recovery ? spec_.lambda_recovery : 0);
  }

  void build_windows() {
    const std::vector<int> latencies = spec_.op_latencies();
    const std::vector<int> asap = dfg::asap_levels(spec_.graph, latencies);
    const std::vector<int> alap_det =
        dfg::alap_levels(spec_.graph, spec_.lambda_detection, latencies);
    std::vector<int> alap_rec;
    if (spec_.with_recovery) {
      alap_rec =
          dfg::alap_levels(spec_.graph, spec_.lambda_recovery, latencies);
    }
    est_.resize(copies_.size());
    lst_.resize(copies_.size());
    for (std::size_t c = 0; c < copies_.size(); ++c) {
      const CopyMeta& meta = copies_[c];
      est_[c] = asap[static_cast<std::size_t>(meta.op)];
      lst_[c] = meta.phase == 0
                    ? alap_det[static_cast<std::size_t>(meta.op)]
                    : alap_rec[static_cast<std::size_t>(meta.op)];
    }
    // Same-schedule dependence neighbors.
    parents_.resize(copies_.size());
    children_.resize(copies_.size());
    for (std::size_t c = 0; c < copies_.size(); ++c) {
      const CopyMeta& meta = copies_[c];
      for (dfg::OpId parent : spec_.graph.parents(meta.op)) {
        parents_[c].push_back(copy_of_.at({meta.kind, parent}));
      }
      for (dfg::OpId child : spec_.graph.children(meta.op)) {
        children_[c].push_back(copy_of_.at({meta.kind, child}));
      }
    }
  }

  void build_conflicts() {
    neighbors_.resize(copies_.size());
    for (const VendorConflict& conflict : vendor_conflicts(spec_)) {
      const int a = copy_of_.at(conflict.a);
      const int b = copy_of_.at(conflict.b);
      neighbors_[static_cast<std::size_t>(a)].push_back(b);
      neighbors_[static_cast<std::size_t>(b)].push_back(a);
    }
    degree_.resize(copies_.size());
    for (std::size_t c = 0; c < copies_.size(); ++c) {
      degree_[c] = static_cast<int>(neighbors_[c].size() +
                                    parents_[c].size() + children_[c].size());
    }
  }

  void build_palette_masks(const Palettes& palettes) {
    for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
      std::uint64_t mask = 0;
      for (vendor::VendorId v : palettes[static_cast<std::size_t>(cls)]) {
        util::check_spec(
            spec_.catalog.offers(v, static_cast<dfg::ResourceClass>(cls)),
            "csp: palette vendor does not offer the class");
        mask |= 1ull << v;
      }
      palette_mask_[static_cast<std::size_t>(cls)] = mask;
      for (vendor::VendorId v = 0; v < spec_.catalog.num_vendors(); ++v) {
        if (mask & (1ull << v)) {
          offer_area_[static_cast<std::size_t>(cls)][static_cast<std::size_t>(
              v)] =
              spec_.catalog.offer(v, static_cast<dfg::ResourceClass>(cls))
                  .area;
        }
      }
    }
  }

  // ---- state access -----------------------------------------------------
  std::size_t usage_index(int phase, int v, int cls, int cycle) const {
    return ((static_cast<std::size_t>(phase) *
                 static_cast<std::size_t>(spec_.catalog.num_vendors()) +
             static_cast<std::size_t>(v)) *
                dfg::kNumResourceClasses +
            static_cast<std::size_t>(cls)) *
               static_cast<std::size_t>(max_lambda_) +
           static_cast<std::size_t>(cycle - 1);
  }
  int& usage(int phase, int v, int cls, int cycle) {
    return usage_[usage_index(phase, v, cls, cycle)];
  }
  /// Index of cycle 1 of the contiguous (phase, vendor, class) usage row.
  std::size_t usage_row_index(int phase, int v, int cls) const {
    return (static_cast<std::size_t>(phase) *
                static_cast<std::size_t>(spec_.catalog.num_vendors()) +
            static_cast<std::size_t>(v)) *
               dfg::kNumResourceClasses *
               static_cast<std::size_t>(max_lambda_) +
           static_cast<std::size_t>(cls) *
               static_cast<std::size_t>(max_lambda_);
  }
  int& peak(int v, int cls) {
    return peak_[static_cast<std::size_t>(v) * dfg::kNumResourceClasses +
                 static_cast<std::size_t>(cls)];
  }
  int& forbid_count(int copy, int v) {
    return forbid_count_[static_cast<std::size_t>(copy) *
                             static_cast<std::size_t>(
                                 spec_.catalog.num_vendors()) +
                         static_cast<std::size_t>(v)];
  }
  int& forbid_setter(int copy, int v) {
    return forbid_setter_[static_cast<std::size_t>(copy) *
                              static_cast<std::size_t>(
                                  spec_.catalog.num_vendors()) +
                          static_cast<std::size_t>(v)];
  }

  // ---- conflict-set bitsets --------------------------------------------
  // Per-depth conflict sets are version-stamped fast-reset bitsets (see
  // util/fast_reset.hpp): dfs clears one per node, so the O(1) stamped
  // reset replaces a words-long memset on the hottest path. jump_conf_ and
  // assigned_bits_ stay plain word vectors — the trail holds raw pointers
  // into assigned_bits_, which stamping would invalidate.
  using Conf = util::FastResetBitset;
  using ConfWords = std::vector<std::uint64_t>;

  static void conf_set(ConfWords& conf, int copy) {
    conf[static_cast<std::size_t>(copy) >> 6] |= 1ull << (copy & 63);
  }
  static void conf_clear_bit(ConfWords& conf, int copy) {
    conf[static_cast<std::size_t>(copy) >> 6] &= ~(1ull << (copy & 63));
  }
  static bool conf_test(const ConfWords& conf, int copy) {
    return (conf[static_cast<std::size_t>(copy) >> 6] >> (copy & 63)) & 1u;
  }

  /// ORs the occupier set of one usage cell into the conflict set: the
  /// copies currently occupying (phase, vendor, class, cycle). Exact
  /// culprits for a per-instance-cap overflow at that cell.
  void conf_add_cell(Conf& conf, int phase, int v, int cls, int cycle) {
    const std::size_t base = usage_index(phase, v, cls, cycle) * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      conf.word_ref(w) |= occ_[base + w];
    }
  }

  /// ORs every currently assigned copy into the conflict set, minus `self`.
  /// Conservative culprits for an area-bound overflow: peaks are a running
  /// aggregate whose contributors alone do not reproduce the failure (a
  /// non-contributor can occupy the cell a later contributor raised), so
  /// only the full assignment is a sound explanation.
  void conf_add_all_assigned(Conf& conf, int self) {
    for (std::size_t w = 0; w < words_; ++w) {
      conf.word_ref(w) |= assigned_bits_[w];
    }
    conf.clear(static_cast<std::size_t>(self));
  }

  /// Seeds the conflict set with the assigned copies responsible for the
  /// *current domain* of `copy` being smaller than its static domain:
  /// whoever tightened its window and whoever forbade each palette vendor
  /// missing from its live mask. Values outside the static domain need no
  /// culprit — their exclusion is unconditional.
  void seed_domain_culprits(int copy, Conf& conf) {
    const std::size_t cs = static_cast<std::size_t>(copy);
    if (est_setter_[cs] >= 0) conf.set(static_cast<std::size_t>(est_setter_[cs]));
    if (lst_setter_[cs] >= 0) conf.set(static_cast<std::size_t>(lst_setter_[cs]));
    const std::uint64_t missing =
        palette_mask_[static_cast<std::size_t>(copies_[cs].cls)] &
        ~allowed_mask_[cs];
    for (std::uint64_t bits = missing; bits != 0; bits &= bits - 1) {
      const int v = __builtin_ctzll(bits);
      const int setter = forbid_setter(copy, v);
      if (setter >= 0) conf.set(static_cast<std::size_t>(setter));
    }
  }

  // ---- nogoods ----------------------------------------------------------
  bool nogood_in_range(const CspNogood& nogood) const {
    for (const NogoodLit& lit : nogood.lits) {
      if (lit.copy < 0 || lit.copy >= static_cast<int>(copies_.size())) {
        return false;
      }
    }
    return !nogood.lits.empty();
  }

  /// Packs one literal for the by-copy prefilter: vendor in the high word,
  /// cycle range below. Ranges that stick out of the 15-bit cycle domain
  /// are clamped conservatively — the prefilter may pass such an entry to
  /// the full check but never rejects a live one.
  static std::uint64_t pack_lit(const NogoodLit& lit) {
    const int lo = std::min(lit.cycle_lo, util::kSwarCycleLimit - 1);
    const int hi = std::min(lit.cycle_hi, util::kSwarCycleLimit - 1);
    const std::uint32_t range = lo <= hi ? util::pack_cycle_range(lo, hi)
                                         : util::pack_cycle_range(1, 0);
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                lit.vendor))
            << 32) |
           range;
  }

  void add_nogood(const CspNogood& nogood) {
    const int id = static_cast<int>(nogoods_.size());
    nogoods_.push_back(nogood);
    for (const NogoodLit& lit : nogoods_.back().lits) {
      by_copy_[static_cast<std::size_t>(lit.copy)].push_back(id);
      by_copy_packed_[static_cast<std::size_t>(lit.copy)].push_back(
          pack_lit(lit));
    }
    index_counters(id);
  }

  // ---- true-literal-counter nogood index --------------------------------
  // Per nogood, ng_count_ tracks (an upper bound on) how many of its
  // literals currently hold. Assignments bump the count through static
  // per-(copy, vendor) buckets of packed cycle ranges, trailed like every
  // other search write; a candidate completes the nogood only if the count
  // already covers every literal outside the candidate's copy, so the
  // check is one bucket scan of branch-free range compares instead of a
  // scan of every nogood on the copy. Each completion claim is verified
  // against the nogood's own literals, keeping conflict sets — and the
  // whole search tree — bit-identical to the reference scan
  // (nogood_blocks).
  //
  // Counts may run STALE-HIGH, never stale-low: a learned nogood is born
  // with its literals in force, and when those older assignments rewind,
  // the trail (recorded before the nogood existed) cannot decrement its
  // baseline. A stale-high count costs a false completion claim, which the
  // reference scan refutes and repair_count() then corrects; soundness only
  // needs count >= true-literal count, which increments, rewinds and
  // repairs all preserve.

  struct CntRef {
    std::uint32_t range = 0;  // packed [lo, hi] the entry's group accepts
    std::int32_t id = 0;      // nogood id
    std::int32_t inc = 0;     // literals the group contributes when true
    std::int32_t needs = 0;   // count needed from the *other* copies
  };
  struct GroupRef {
    std::int32_t copy = 0;
    std::int32_t inc = 0;
  };

  /// Buckets a fresh nogood's literals by copy and seeds its true-count
  /// from the current assignment. A group (all literals on one copy) gets
  /// an entry only if a single assignment can make it fully true — one
  /// vendor, non-empty intersected range inside the packed cycle domain;
  /// groups that can never hold keep the nogood unfireable and need no
  /// entry.
  void index_counters(int id) {
    const CspNogood& ng = nogoods_[static_cast<std::size_t>(id)];
    const int n = static_cast<int>(ng.lits.size());
    ng_count_.resize(static_cast<std::size_t>(id) + 1, 0);
    ng_entries_.resize(static_cast<std::size_t>(id) + 1);
    int count = 0;
    for (int i = 0; i < n; ++i) {
      const int c = ng.lits[static_cast<std::size_t>(i)].copy;
      bool first = true;
      for (int j = 0; j < i; ++j) {
        if (ng.lits[static_cast<std::size_t>(j)].copy == c) {
          first = false;
          break;
        }
      }
      if (!first) continue;
      const int vend = ng.lits[static_cast<std::size_t>(i)].vendor;
      int k = 0;
      int lo = 1;
      int hi = util::kSwarCycleLimit - 1;
      bool one_vendor = true;
      bool all_true = true;
      for (int j = 0; j < n; ++j) {
        const NogoodLit& lit = ng.lits[static_cast<std::size_t>(j)];
        if (lit.copy != c) continue;
        ++k;
        if (lit.vendor != vend) one_vendor = false;
        lo = std::max(lo, lit.cycle_lo);
        hi = std::min(hi, lit.cycle_hi);
        if (!lit_true(lit)) all_true = false;
      }
      if (!one_vendor || lo > hi) continue;
      cnt_buckets_[bucket_index(c, vend)].push_back(
          CntRef{util::pack_cycle_range(lo, hi), id, k, n - k});
      ng_entries_[static_cast<std::size_t>(id)].push_back(GroupRef{c, k});
      if (all_true) count += k;
    }
    ng_count_[static_cast<std::size_t>(id)] = count;
  }

  /// Recomputes one nogood's true-count from scratch after a false
  /// completion claim exposed it as stale-high. Untrailed on purpose: any
  /// value the trail later restores was itself >= the true count at its
  /// snapshot, so the soundness invariant survives the mix.
  void repair_count(int id) {
    const CspNogood& ng = nogoods_[static_cast<std::size_t>(id)];
    int count = 0;
    for (const GroupRef& group : ng_entries_[static_cast<std::size_t>(id)]) {
      bool all_true = true;
      for (const NogoodLit& lit : ng.lits) {
        if (lit.copy == group.copy && !lit_true(lit)) {
          all_true = false;
          break;
        }
      }
      if (all_true) count += group.inc;
    }
    ng_count_[static_cast<std::size_t>(id)] = count;
  }

  /// All literals of `id` hold under the current assignment extended by
  /// the candidate — the reference scan's per-nogood check, extracted so
  /// counter claims can be verified without scanning the whole by-copy
  /// list.
  bool nogood_fires(int id, int copy, int cycle, int v) const {
    for (const NogoodLit& lit : nogoods_[static_cast<std::size_t>(id)].lits) {
      if (!lit_true_under(lit, copy, cycle, v)) return false;
    }
    return true;
  }

  /// Counter counterpart of nogood_blocks(): scans the candidate's
  /// (copy, vendor) bucket; an entry whose range holds the candidate cycle
  /// and whose count already covers the other copies claims a completion.
  /// Each claim is verified against the nogood's own literals (<= 4 of
  /// them) — every nogood that truly fires on this candidate has a
  /// claiming entry here, and entries sit in id order, so the first
  /// verified claim IS the reference scan's verdict: same nogood, same
  /// conflict set, bit for bit.
  bool counter_blocks(int copy, int cycle, int v, Conf* conf) {
    const std::vector<CntRef>& bucket = cnt_buckets_[bucket_index(copy, v)];
    for (const CntRef& ref : bucket) {
      ++watch_visits_;
      if (!util::packed_range_contains(ref.range, cycle)) continue;
      if (ng_count_[static_cast<std::size_t>(ref.id)] < ref.needs) continue;
      if (nogood_fires(ref.id, copy, cycle, v)) {
        if (conf != nullptr) {
          for (const NogoodLit& lit :
               nogoods_[static_cast<std::size_t>(ref.id)].lits) {
            if (lit.copy != copy) conf->set(static_cast<std::size_t>(lit.copy));
          }
        }
        return true;
      }
      // A refuted claim means the count ran stale-high. Cool it off so the
      // bucket does not stay permanently hot.
      repair_count(ref.id);
    }
    return false;
  }

  /// True iff copy := (cycle, v) would complete a stored nogood: the
  /// counter verdict, or the reference scan it must reproduce.
  bool nogood_check(int copy, int cycle, int v, Conf* conf) {
    return reference_scan_ ? nogood_blocks(copy, cycle, v, conf)
                           : counter_blocks(copy, cycle, v, conf);
  }

  std::size_t bucket_index(int copy, int v) const {
    return static_cast<std::size_t>(copy) * kMaxVendors +
           static_cast<std::size_t>(v);
  }

  /// True under the current assignment.
  bool lit_true(const NogoodLit& lit) const {
    const std::size_t ls = static_cast<std::size_t>(lit.copy);
    const int ac = assigned_cycle_[ls];
    return ac >= 0 && assigned_vendor_[ls] == lit.vendor &&
           ac >= lit.cycle_lo && ac <= lit.cycle_hi;
  }

  /// True under the current assignment extended by the candidate
  /// copy := (cycle, v). The candidate's copy is unassigned at check time,
  /// so its literals are decided by the candidate alone.
  bool lit_true_under(const NogoodLit& lit, int copy, int cycle,
                      int v) const {
    if (lit.copy == copy) {
      return lit.vendor == v && cycle >= lit.cycle_lo &&
             cycle <= lit.cycle_hi;
    }
    return lit_true(lit);
  }

  /// Records the current wipeout explanation as a nogood if it is small
  /// enough to be worth checking: the conjunction of the culprits' current
  /// assignments admits no solution. Sound because the wipeout of the
  /// current variable was derived from exactly those assignments.
  void maybe_learn(const Conf& conf) {
    if (learned_count_ >= kLearnCap) return;
    const int size = conf.popcount();
    if (size < 1 || size > 4) return;
    CspNogood nogood;
    nogood.lits.reserve(static_cast<std::size_t>(size));
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t bits = conf.word_value(w); bits != 0;
           bits &= bits - 1) {
        const int c = static_cast<int>(w * 64) + __builtin_ctzll(bits);
        const std::size_t cs = static_cast<std::size_t>(c);
        if (assigned_cycle_[cs] < 0) return;  // culprit must be assigned
        nogood.lits.push_back(NogoodLit{c, assigned_vendor_[cs],
                                        assigned_cycle_[cs],
                                        assigned_cycle_[cs]});
      }
    }
    if (!nogood_hashes_.insert(hash_nogood(nogood)).second) return;
    add_nogood(nogood);
    ++learned_count_;
  }

  /// True iff assigning copy := (cycle, v) would complete some stored
  /// nogood (every other literal already holds). Adds the other literals'
  /// copies to the conflict set: their assignments are what rules this
  /// value out.
  bool nogood_blocks(int copy, int cycle, int v, Conf* conf) const {
    const std::vector<int>& ids = by_copy_[static_cast<std::size_t>(copy)];
    const std::uint64_t* packed =
        by_copy_packed_[static_cast<std::size_t>(copy)].data();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      // Branch-free reject on the literal that put this id in the by-copy
      // list: if the candidate does not even satisfy that literal, the
      // full check below would fail at it anyway.
      const std::uint64_t p = packed[i];
      if (static_cast<int>(p >> 32) != v ||
          !util::packed_range_contains(static_cast<std::uint32_t>(p),
                                       cycle)) {
        continue;
      }
      const int id = ids[i];
      const CspNogood& nogood = nogoods_[static_cast<std::size_t>(id)];
      bool fired = true;
      for (const NogoodLit& lit : nogood.lits) {
        if (lit.copy == copy) {
          if (lit.vendor != v || cycle < lit.cycle_lo ||
              cycle > lit.cycle_hi) {
            fired = false;
            break;
          }
        } else {
          const std::size_t ls = static_cast<std::size_t>(lit.copy);
          const int ac = assigned_cycle_[ls];
          if (ac < 0 || assigned_vendor_[ls] != lit.vendor ||
              ac < lit.cycle_lo || ac > lit.cycle_hi) {
            fired = false;
            break;
          }
        }
      }
      if (fired) {
        if (conf != nullptr) {
          for (const NogoodLit& lit : nogood.lits) {
            if (lit.copy != copy) {
              conf->set(static_cast<std::size_t>(lit.copy));
            }
          }
        }
        return true;
      }
    }
    return false;
  }

  // ---- trail / undo -----------------------------------------------------
  void record(int* slot) { trail_.emplace_back(slot, *slot); }
  void record_ll(long long* slot) { trail_ll_.emplace_back(slot, *slot); }
  void record_u64(std::uint64_t* slot) {
    trail_u64_.emplace_back(slot, *slot);
  }

  struct Mark {
    std::size_t trail;
    std::size_t trail_ll;
    std::size_t trail_u64;
  };
  Mark mark() const {
    return {trail_.size(), trail_ll_.size(), trail_u64_.size()};
  }
  void rewind(Mark m) {
    while (trail_.size() > m.trail) {
      auto [slot, old] = trail_.back();
      trail_.pop_back();
      *slot = old;
    }
    while (trail_ll_.size() > m.trail_ll) {
      auto [slot, old] = trail_ll_.back();
      trail_ll_.pop_back();
      *slot = old;
    }
    while (trail_u64_.size() > m.trail_u64) {
      auto [slot, old] = trail_u64_.back();
      trail_u64_.pop_back();
      *slot = old;
    }
  }

  // ---- assignment -------------------------------------------------------
  /// Applies copy := (cycle, vendor). Returns false on an immediate dead
  /// end (caller must rewind to its mark). With learning on, `conf`
  /// collects the assigned copies responsible for the failure — a set
  /// whose assignments alone already rule this value out.
  bool assign(int copy, int cycle, int v, Conf* conf) {
    // Stored nogoods are checked before any trail writes, so a blocked
    // value costs no rewind.
    if (learning_) {
      // Nogood-propagation metrics: this check is far too hot for a clock
      // read per call, so count every check and time one in 64 (the
      // counter, not the clock, picks the samples — deterministic). The
      // per-solve total is extrapolated in run().
      bool blocked;
      if (record_obs_ && (ng_checks_++ & 63) == 0) {
        const std::int64_t t0 = obs::metrics_now_ns();
        blocked = nogood_check(copy, cycle, v, conf);
        ng_sampled_ns_ += obs::metrics_now_ns() - t0;
      } else {
        blocked = nogood_check(copy, cycle, v, conf);
      }
      if (blocked) return false;
    }

    const CopyMeta& meta = copies_[static_cast<std::size_t>(copy)];
    record(&assigned_cycle_[static_cast<std::size_t>(copy)]);
    record(&assigned_vendor_[static_cast<std::size_t>(copy)]);
    assigned_cycle_[static_cast<std::size_t>(copy)] = cycle;
    assigned_vendor_[static_cast<std::size_t>(copy)] = v;
    if (learning_) {
      std::uint64_t& word = assigned_bits_[static_cast<std::size_t>(copy) >> 6];
      record_u64(&word);
      word |= 1ull << (copy & 63);
      // Bump the true-literal counters this assignment satisfies. Trailed
      // like every other write, so rewinds keep counts exact for any
      // nogood that existed when the assignment committed.
      for (const CntRef& ref : cnt_buckets_[bucket_index(copy, v)]) {
        if (util::packed_range_contains(ref.range, cycle)) {
          int& count = ng_count_[static_cast<std::size_t>(ref.id)];
          record(&count);
          count += ref.inc;
        }
      }
    }

    // Resource usage / peak / area, over the whole occupancy interval. The
    // usage row for (phase, vendor, class) is one contiguous cycle-indexed
    // skyline row; assignments are O(latency) deltas on it and the value
    // loop below queries it through the shared row_peak kernel.
    const std::size_t cell0 = usage_row_index(meta.phase, v, meta.cls);
    int* const row = usage_.data() + cell0;
    for (int busy = cycle; busy < cycle + meta.latency; ++busy) {
      int& use = row[busy - 1];
      record(&use);
      ++use;
      int& pk = peak(v, meta.cls);
      if (use > pk) {
        if (use > class_cap_[static_cast<std::size_t>(meta.cls)]) {
          // The previous occupiers of this cell alone overflow the cap
          // with us; our own occ bit for this cell is not yet set.
          if (conf != nullptr) {
            conf_add_cell(*conf, meta.phase, v, meta.cls, busy);
          }
          return false;
        }
        record(&pk);
        pk = use;
        record_ll(&area_committed_);
        area_committed_ +=
            offer_area_[static_cast<std::size_t>(meta.cls)]
                       [static_cast<std::size_t>(v)];
        if (area_committed_ > spec_.area_limit) {
          if (conf != nullptr) conf_add_all_assigned(*conf, copy);
          return false;
        }
      }
      if (learning_) {
        std::uint64_t& word =
            occ_[(cell0 + static_cast<std::size_t>(busy - 1)) * words_ +
                 (static_cast<std::size_t>(copy) >> 6)];
        record_u64(&word);
        word |= 1ull << (copy & 63);
      }
    }

    // Vendor-diversity propagation. The per-copy allowed mask is maintained
    // incrementally: it loses bit v exactly when the forbid count for
    // (copy, v) transitions 0 -> 1, and the trail restores it on rewind —
    // no O(vendors) rescan per propagation or per select/enumerate.
    for (int nb : neighbors_[static_cast<std::size_t>(copy)]) {
      if (assigned_vendor_[static_cast<std::size_t>(nb)] == v) {
        if (conf != nullptr) conf->set(static_cast<std::size_t>(nb));
        return false;
      }
      if (assigned_vendor_[static_cast<std::size_t>(nb)] >= 0) continue;
      int& count = forbid_count(nb, v);
      record(&count);
      ++count;
      if (count == 1) {
        if (learning_) {
          int& setter = forbid_setter(nb, v);
          record(&setter);
          setter = copy;
        }
        std::uint64_t& mask = allowed_mask_[static_cast<std::size_t>(nb)];
        record_u64(&mask);
        mask &= ~(1ull << v);
        std::uint64_t& key = select_key_[static_cast<std::size_t>(nb)];
        record_u64(&key);
        key = select_key_of(static_cast<std::size_t>(nb));
        if (mask == 0) {
          // Every palette vendor of nb is forbidden; the first forbidder
          // of each vendor (excluding us) plus us make the wipeout.
          if (conf != nullptr) {
            const std::uint64_t palette =
                palette_mask_[static_cast<std::size_t>(
                    copies_[static_cast<std::size_t>(nb)].cls)];
            for (std::uint64_t bits = palette; bits != 0; bits &= bits - 1) {
              const int v2 = __builtin_ctzll(bits);
              const int setter = forbid_setter(nb, v2);
              if (setter >= 0 && setter != copy) {
                conf->set(static_cast<std::size_t>(setter));
              }
            }
          }
          return false;
        }
      }
    }

    // Dependence window propagation within the same schedule: children may
    // start once this op finishes; parents must have finished before this
    // op starts.
    for (int child : children_[static_cast<std::size_t>(copy)]) {
      const std::size_t ch = static_cast<std::size_t>(child);
      if (est_[ch] < cycle + meta.latency) {
        record(&est_[ch]);
        est_[ch] = cycle + meta.latency;
        record_u64(&select_key_[ch]);
        select_key_[ch] = select_key_of(ch);
        if (learning_) {
          record(&est_setter_[ch]);
          est_setter_[ch] = copy;
        }
        if (est_[ch] > lst_[ch]) {
          // Window wipeout: we raised est; whoever lowered lst (if anyone)
          // shares the blame.
          if (conf != nullptr && learning_ && lst_setter_[ch] >= 0 &&
              lst_setter_[ch] != copy) {
            conf->set(static_cast<std::size_t>(lst_setter_[ch]));
          }
          return false;
        }
      }
    }
    for (int parent : parents_[static_cast<std::size_t>(copy)]) {
      const std::size_t pa = static_cast<std::size_t>(parent);
      const int parent_latency = copies_[pa].latency;
      if (lst_[pa] > cycle - parent_latency) {
        record(&lst_[pa]);
        lst_[pa] = cycle - parent_latency;
        record_u64(&select_key_[pa]);
        select_key_[pa] = select_key_of(pa);
        if (learning_) {
          record(&lst_setter_[pa]);
          lst_setter_[pa] = copy;
        }
        if (est_[pa] > lst_[pa]) {
          if (conf != nullptr && learning_ && est_setter_[pa] >= 0 &&
              est_setter_[pa] != copy) {
            conf->set(static_cast<std::size_t>(est_setter_[pa]));
          }
          return false;
        }
      }
    }
    return true;
  }

  // ---- search -----------------------------------------------------------
  // Only unassigned copies live in unassigned_ (swap-remove on descent,
  // exact inverse on backtrack), so variable selection never rescans
  // assigned copies.
  /// Packed selection key: score:24 | (2^20-1 - degree):20 | copy:20,
  /// ordering by exactly (score asc, degree desc, copy asc), where score is
  /// window width times live vendor count. Maintained incrementally in
  /// select_key_ — recomputed (and trailed) at the three assign-time sites
  /// that change est/lst/allowed — so the per-node argmin is a pure
  /// min-scan of precomputed keys. A wipeout makes the window momentarily
  /// negative and the key garbage, but assign fails and the caller rewinds
  /// before any select can read it.
  std::uint64_t select_key_of(std::size_t cs) const {
    const std::uint64_t score =
        static_cast<std::uint64_t>(lst_[cs] - est_[cs] + 1) *
        static_cast<std::uint64_t>(__builtin_popcountll(allowed_mask_[cs]));
    return (score << 40) | select_static_[cs];
  }

  /// Copies are unique per key, so the minimum key names one variable, and
  /// the constructor's limits keep every field in range.
  int select_variable() const {
    std::uint64_t best_key = ~0ull;
    for (int c : unassigned_) {
      const std::uint64_t key = select_key_[static_cast<std::size_t>(c)];
      if (key < best_key) best_key = key;
    }
    return best_key == ~0ull ? -1 : static_cast<int>(best_key & 0xFFFFF);
  }

  void remove_unassigned(int copy) {
    const std::size_t pos =
        static_cast<std::size_t>(unassigned_pos_[static_cast<std::size_t>(
            copy)]);
    const int moved = unassigned_.back();
    unassigned_[pos] = moved;
    unassigned_pos_[static_cast<std::size_t>(moved)] = static_cast<int>(pos);
    unassigned_.pop_back();
  }

  // Exact inverse of remove_unassigned under the search's LIFO discipline:
  // unassigned_pos_[copy] still names the slot it vacated.
  void restore_unassigned(int copy) {
    const std::size_t pos =
        static_cast<std::size_t>(unassigned_pos_[static_cast<std::size_t>(
            copy)]);
    if (pos == unassigned_.size()) {
      unassigned_.push_back(copy);
      return;
    }
    const int moved = unassigned_[pos];
    unassigned_.push_back(moved);
    unassigned_pos_[static_cast<std::size_t>(moved)] =
        static_cast<int>(unassigned_.size()) - 1;
    unassigned_[pos] = copy;
  }

  struct Value {
    long long area_delta;
    std::uint64_t order_key;  // cycle << 8 | vendor_rank, packed at push
    int cycle;
    int vendor;
  };

  /// A per-depth segment of the contiguous value arena.
  struct ValueSpan {
    Value* data;
    int count;
    Value* begin() const { return data; }
    Value* end() const { return data + count; }
  };

  // Values ordered by (area_delta, cycle, vendor preference): no added area
  // first, then earlier cycles, then lower vendor rank. vendor_rank_ is the
  // identity on the first descent of every solve (and always, with seed 0),
  // which is the historical canonical order; restarts with a nonzero seed
  // permute it deterministically per segment. The (cycle, rank) tail of the
  // comparator is hoisted into one packed key per candidate at push time —
  // rank is a permutation, so (area_delta, order_key) sorts identically to
  // the historical three-way comparator without re-ranking per comparison.
  // Culprits for values pruned here go to `conf` (nullable) just like
  // assign-time failures.
  ValueSpan enumerate_values(int copy, std::size_t depth, Conf* conf) {
    Value* const out = value_arena_.data() + depth * value_cap_;
    int count = 0;
    const CopyMeta& meta = copies_[static_cast<std::size_t>(copy)];
    const std::uint64_t allowed =
        allowed_mask_[static_cast<std::size_t>(copy)];
    const int cap = class_cap_[static_cast<std::size_t>(meta.cls)];
    const int pk_base_lo = est_[static_cast<std::size_t>(copy)];
    const int pk_base_hi = lst_[static_cast<std::size_t>(copy)];
    const std::size_t row0 = usage_row_index(meta.phase, 0, meta.cls);
    for (std::uint64_t bits = allowed; bits != 0; bits &= bits - 1) {
      const int v = __builtin_ctzll(bits);
      const int* const row =
          usage_.data() + row0 +
          static_cast<std::size_t>(v) * usage_vstride_;
      const int pk = peak_[static_cast<std::size_t>(v) *
                               dfg::kNumResourceClasses +
                           static_cast<std::size_t>(meta.cls)];
      const long long area_each =
          offer_area_[static_cast<std::size_t>(meta.cls)]
                     [static_cast<std::size_t>(v)];
      const std::uint64_t rank =
          static_cast<std::uint64_t>(
              vendor_rank_[static_cast<std::size_t>(v)]);
      for (int cycle = pk_base_lo; cycle <= pk_base_hi; ++cycle) {
        // Instances required over the occupancy interval: one above the
        // row's current skyline there.
        const int needed =
            (meta.latency == 1 ? row[cycle - 1]
                               : row_peak(row, cycle, meta.latency)) +
            1;
        long long area_delta = 0;
        if (needed > pk) {
          if (needed > cap) {
            if (conf != nullptr) {
              // The occupiers of the fullest busy cycle alone exclude
              // this value.
              for (int busy = cycle; busy < cycle + meta.latency; ++busy) {
                if (row[busy - 1] == needed - 1) {
                  conf_add_cell(*conf, meta.phase, v, meta.cls, busy);
                  break;
                }
              }
            }
            continue;
          }
          area_delta = static_cast<long long>(needed - pk) * area_each;
          if (area_committed_ + area_delta > spec_.area_limit) {
            if (conf != nullptr) conf_add_all_assigned(*conf, copy);
            continue;
          }
        }
        out[count++] =
            Value{area_delta,
                  (static_cast<std::uint64_t>(cycle) << 8) | rank, cycle, v};
      }
    }
    std::sort(out, out + count, [](const Value& a, const Value& b) {
      if (a.area_delta != b.area_delta) return a.area_delta < b.area_delta;
      return a.order_key < b.order_key;
    });
    return ValueSpan{out, count};
  }

  /// In-place stable filter of a root span to the restricted value block;
  /// returns the surviving count.
  int filter_root_values(ValueSpan values) const {
    Value* out = values.data;
    for (Value* v = values.data; v != values.data + values.count; ++v) {
      if (std::binary_search(root_values_.begin(), root_values_.end(),
                             std::make_pair(v->cycle, v->vendor))) {
        *out++ = *v;
      }
    }
    return static_cast<int>(out - values.data);
  }

  /// Seed-dependent vendor preference for restart segment segment_index_.
  /// Seed 0 (and segment 0, by construction of the run loop) keeps the
  /// canonical identity ranking.
  void apply_rotation() {
    for (int i = 0; i < kMaxVendors; ++i) vendor_rank_[i] = i;
    if (options_.seed == 0) return;
    std::uint64_t state =
        options_.seed ^
        (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(segment_index_));
    for (int i = kMaxVendors - 1; i > 0; --i) {
      const int j = static_cast<int>(
          splitmix64(state) % static_cast<std::uint64_t>(i + 1));
      std::swap(vendor_rank_[static_cast<std::size_t>(i)],
                vendor_rank_[static_cast<std::size_t>(j)]);
    }
  }

  Outcome dfs(std::size_t depth) {
    if (++nodes_ > options_.max_nodes) return Outcome::kNodeLimit;
    if (segment_limit_ > 0 && nodes_ > segment_limit_ && depth > 0) {
      return Outcome::kRestart;
    }
    if ((nodes_ & 0x3ff) == 0) {
      if ((options_.cancel != nullptr && options_.cancel->cancelled()) ||
          (internal_cancel_ != nullptr && internal_cancel_->cancelled())) {
        return Outcome::kCancelled;
      }
      if (Clock::now() >= deadline_) return Outcome::kTimeout;
    }
    const bool at_restricted_root = depth == 0 && root_copy_ >= 0;
    const int copy = at_restricted_root ? root_copy_ : select_variable();
    if (copy < 0) return Outcome::kSolved;  // everything assigned
    remove_unassigned(copy);

    Conf* conf = nullptr;
    if (learning_) {
      conf = &conf_pool_[depth];
      conf->reset();
      seed_domain_culprits(copy, *conf);
    }
    ValueSpan values = enumerate_values(copy, depth, conf);
    if (at_restricted_root) values.count = filter_root_values(values);

    for (const Value& value : values) {
      const Mark m = mark();
      if (assign(copy, value.cycle, value.vendor, conf)) {
        const Outcome outcome = dfs(depth + 1);
        if (outcome == Outcome::kExhausted && learning_) {
          if (!conf_test(jump_conf_, copy)) {
            // The subtree's wipeout does not mention our decision: no
            // sibling value of ours can repair it. Jump straight past
            // this level, handing the same explanation upward.
            rewind(m);
            restore_unassigned(copy);
            ++backjumps_;
            return Outcome::kExhausted;
          }
          conf_clear_bit(jump_conf_, copy);
          for (std::size_t w = 0; w < words_; ++w) {
            conf->word_ref(w) |= jump_conf_[w];
          }
        } else if (outcome == Outcome::kRestart) {
          rewind(m);
          restore_unassigned(copy);
          return Outcome::kRestart;
        } else if (outcome != Outcome::kExhausted) {
          return outcome;  // solved, or a limit: state is kept / discarded
        }
      }
      rewind(m);
    }
    restore_unassigned(copy);
    if (learning_) {
      conf->clear(static_cast<std::size_t>(copy));  // never our own decision
      // A restricted root only exhausted its block of values, which proves
      // nothing about the full domain — no nogood, and no parent anyway.
      if (!at_restricted_root) maybe_learn(*conf);
      for (std::size_t w = 0; w < words_; ++w) {
        jump_conf_[w] = conf->word_value(w);
      }
    }
    return Outcome::kExhausted;
  }

  Solution extract_solution() {
    Solution solution(spec_.graph.num_ops(), spec_.with_recovery);
    // Instances of one offer are interchangeable; pack the (possibly
    // multi-cycle) occupancy intervals per (phase, vendor, class) onto
    // instance indices with greedy interval scheduling — the instance
    // count realized equals the peak tracked during search.
    std::map<std::tuple<int, int, int>, std::vector<std::size_t>> groups;
    for (std::size_t c = 0; c < copies_.size(); ++c) {
      util::check_internal(assigned_cycle_[c] >= 1 && assigned_vendor_[c] >= 0,
                           "csp: extracting incomplete assignment");
      groups[{copies_[c].phase, assigned_vendor_[c], copies_[c].cls}]
          .push_back(c);
    }
    for (auto& [key, group] : groups) {
      (void)key;
      std::sort(group.begin(), group.end(),
                [&](std::size_t a, std::size_t b) {
                  return assigned_cycle_[a] < assigned_cycle_[b];
                });
      std::vector<int> instance_free_at;
      for (std::size_t c : group) {
        const CopyMeta& meta = copies_[c];
        const int start = assigned_cycle_[c];
        const int finish = start + meta.latency;
        int chosen = -1;
        for (std::size_t i = 0; i < instance_free_at.size(); ++i) {
          if (instance_free_at[i] <= start) {
            chosen = static_cast<int>(i);
            break;
          }
        }
        if (chosen < 0) {
          chosen = static_cast<int>(instance_free_at.size());
          instance_free_at.push_back(0);
        }
        instance_free_at[static_cast<std::size_t>(chosen)] = finish;
        solution.at(meta.kind, meta.op) =
            Binding{start, assigned_vendor_[c], chosen};
      }
    }
    return solution;
  }

  const ProblemSpec& spec_;
  const CspOptions& options_;
  const bool learning_;
  const bool reference_scan_;  // see detail::solve_with_reference_scan

  std::vector<CopyMeta> copies_;
  std::map<CopyRef, int> copy_of_;
  int max_lambda_ = 0;

  std::vector<int> est_, lst_;
  std::vector<std::vector<int>> parents_, children_;  // same-schedule deps
  std::vector<std::vector<int>> neighbors_;           // vendor conflicts
  std::vector<int> degree_;
  std::array<std::uint64_t, dfg::kNumResourceClasses> palette_mask_{};
  std::array<std::array<long long, kMaxVendors>, dfg::kNumResourceClasses>
      offer_area_{};

  std::vector<int> forbid_count_;
  std::vector<std::uint64_t> allowed_mask_;  // palette minus forbidden, live
  std::vector<int> assigned_cycle_, assigned_vendor_;
  std::vector<int> unassigned_;      // swap-remove list for select_variable
  std::vector<int> unassigned_pos_;  // copy -> slot in unassigned_
  std::vector<int> usage_;
  std::size_t usage_vstride_ = 0;  // usage_ stride between vendors
  std::vector<int> peak_;
  /// spec_.instance_cap per class, cached: the cap sits on the per-cycle
  /// usage loop and the value enumeration, too hot for an out-of-line call.
  std::array<int, dfg::kNumResourceClasses> class_cap_{};
  long long area_committed_ = 0;

  std::vector<std::pair<int*, int>> trail_;
  std::vector<std::pair<long long*, long long>> trail_ll_;
  std::vector<std::pair<std::uint64_t*, std::uint64_t>> trail_u64_;
  // Depth-major contiguous value storage: slot `depth * value_cap_` holds
  // that depth's candidate list. Sized once at construction and never
  // reallocated (dfs holds spans into it across recursion).
  std::vector<Value> value_arena_;
  std::size_t value_cap_ = 0;  // per-depth capacity (largest root domain)

  std::vector<std::uint64_t> select_static_;  // (~degree):20 | copy:20
  std::vector<std::uint64_t> select_key_;     // see select_key_of

  // Conflict-directed state (allocated only with learning on).
  std::size_t words_ = 0;            // bitset words per conflict set
  std::vector<Conf> conf_pool_;      // per-depth conflict sets
  ConfWords jump_conf_;              // wipeout explanation in flight upward
  ConfWords assigned_bits_;          // bitset of assigned copies
  std::vector<std::uint64_t> occ_;   // per usage cell: occupier bitset
  std::vector<int> forbid_setter_;   // (copy, vendor) -> first forbidder
  std::vector<int> est_setter_, lst_setter_;  // copy -> window tightener
  std::vector<CspNogood> nogoods_;   // imported prefix + learned
  std::vector<std::vector<int>> by_copy_;  // copy -> nogood ids touching it
  std::vector<std::vector<std::uint64_t>> by_copy_packed_;  // pack_lit mirror
  std::unordered_set<std::uint64_t> nogood_hashes_;
  int imported_count_ = 0;
  int learned_count_ = 0;

  // True-literal-counter index (learning only; see counter_blocks).
  std::vector<std::vector<CntRef>> cnt_buckets_;  // copy*kMaxVendors+v
  std::vector<int> ng_count_;                // id -> (upper bound on) trues
  std::vector<std::vector<GroupRef>> ng_entries_;  // id -> indexed groups
  long watch_visits_ = 0;

  // Nogood-propagation metrics (see assign()). The binding is sampled at
  // construction: a split-solve pool lane has no bound sink, so its blocks
  // record nothing — the documented caveat of the sampled aggregate.
  const bool record_obs_ = obs::bound_metrics() != nullptr;
  long long ng_checks_ = 0;
  long long ng_sampled_ns_ = 0;

  std::array<int, kMaxVendors> vendor_rank_{};
  long segment_index_ = 0;
  long segment_limit_ = 0;  // nodes_ bound of the current Luby segment
  long nodes_ = 0;
  long backjumps_ = 0;
  long restarts_ = 0;
  Clock::time_point deadline_{};
  const util::CancelToken* internal_cancel_ = nullptr;
  int root_copy_ = -1;
  std::vector<std::pair<int, int>> root_values_;  // sorted (cycle, vendor)
};

/// Deterministic subtree splitting: partition the canonical root value list
/// into contiguous blocks, solve each independently (optionally on a thread
/// pool), and commit the lowest-index solved block. Blocks at or below the
/// winner always run to completion, so the committed solution — and the
/// exported nogood set — is identical for every lane count.
CspResult split_solve(const ProblemSpec& spec, const Palettes& palettes,
                      const CspOptions& options, bool reference_scan) {
  RootPlan plan;
  {
    Search probe(spec, palettes, options, reference_scan);
    plan = probe.plan_root();
  }
  if (plan.infeasible || (plan.copy >= 0 && plan.values.empty())) {
    CspResult result;
    result.status = CspResult::Status::kInfeasible;
    return result;
  }
  const int blocks =
      plan.copy < 0 ? 1
                    : static_cast<int>(std::min<std::size_t>(
                          static_cast<std::size_t>(options.subtree_split),
                          plan.values.size()));
  if (blocks <= 1) {
    Search search(spec, palettes, options, reference_scan);
    return search.run();
  }

  // Contiguous partition of the canonical value order: a function of spec
  // and palette only.
  std::vector<std::vector<std::pair<int, int>>> parts(
      static_cast<std::size_t>(blocks));
  const std::size_t total_values = plan.values.size();
  const std::size_t base = total_values / static_cast<std::size_t>(blocks);
  const std::size_t extra = total_values % static_cast<std::size_t>(blocks);
  std::size_t pos = 0;
  for (int b = 0; b < blocks; ++b) {
    const std::size_t len = base + (static_cast<std::size_t>(b) < extra);
    parts[static_cast<std::size_t>(b)].assign(
        plan.values.begin() + static_cast<std::ptrdiff_t>(pos),
        plan.values.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  }

  CspOptions block_options = options;
  block_options.subtree_split = 1;
  block_options.max_nodes =
      std::max<long>(1000, options.max_nodes / blocks);

  std::vector<util::CancelToken> tokens(static_cast<std::size_t>(blocks));
  std::vector<CspResult> results(static_cast<std::size_t>(blocks));
  std::vector<char> ran(static_cast<std::size_t>(blocks), 0);
  std::mutex mutex;
  int min_solved = blocks;  // lowest block index with a solution so far
  std::atomic<int> next{0};

  const auto lane = [&] {
    for (;;) {
      const int b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks) return;
      {
        std::lock_guard<std::mutex> lock(mutex);
        // A lower block already solved: this block can never win, and
        // skipping it is deterministic (min_solved only decreases, so a
        // skipped block is always above the final winner).
        if (b > min_solved) continue;
      }
      Search search(spec, palettes, block_options, reference_scan);
      search.set_internal_cancel(&tokens[static_cast<std::size_t>(b)]);
      search.restrict_root(plan.copy, parts[static_cast<std::size_t>(b)]);
      CspResult result = search.run();
      std::lock_guard<std::mutex> lock(mutex);
      if (result.status == CspResult::Status::kFeasible && b < min_solved) {
        min_solved = b;
        // Higher blocks can no longer win; lower ones keep running so the
        // final winner never depends on timing.
        for (int j = b + 1; j < blocks; ++j) {
          tokens[static_cast<std::size_t>(j)].request_cancel();
        }
      }
      results[static_cast<std::size_t>(b)] = std::move(result);
      ran[static_cast<std::size_t>(b)] = 1;
    }
  };

  const int lanes = std::clamp(options.split_threads, 1, blocks);
  if (lanes <= 1) {
    lane();
  } else {
    util::ThreadPool pool(lanes - 1);
    util::TaskGroup group(pool);
    for (int i = 0; i < lanes - 1; ++i) group.run(lane);
    lane();
    group.wait();
  }

  CspResult out;
  const bool solved = min_solved < blocks;
  // Stats cover exactly the blocks whose completion is deterministic: the
  // winner and everything below it, or all blocks when nothing solved
  // (then nothing was skipped or internally cancelled).
  const int stat_hi = solved ? min_solved : blocks - 1;
  for (int b = 0; b <= stat_hi; ++b) {
    if (!ran[static_cast<std::size_t>(b)]) continue;
    out.nodes += results[static_cast<std::size_t>(b)].nodes;
    out.backjumps += results[static_cast<std::size_t>(b)].backjumps;
    out.restarts += results[static_cast<std::size_t>(b)].restarts;
    out.watch_visits += results[static_cast<std::size_t>(b)].watch_visits;
  }
  bool truncated = false;  // a contributing block hit the clock or a cancel
  for (int b = 0; b <= stat_hi; ++b) {
    const CspResult::Status s = results[static_cast<std::size_t>(b)].status;
    if (s == CspResult::Status::kTimeout ||
        s == CspResult::Status::kCancelled) {
      truncated = true;
    }
  }
  if (solved) {
    out.status = CspResult::Status::kFeasible;
    out.solution = results[static_cast<std::size_t>(min_solved)].solution;
  } else {
    bool any_cancel = false, any_timeout = false, any_nodelimit = false;
    for (int b = 0; b < blocks; ++b) {
      switch (results[static_cast<std::size_t>(b)].status) {
        case CspResult::Status::kCancelled: any_cancel = true; break;
        case CspResult::Status::kTimeout: any_timeout = true; break;
        case CspResult::Status::kNodeLimit: any_nodelimit = true; break;
        default: break;
      }
    }
    if (any_cancel) {
      out.status = CspResult::Status::kCancelled;
    } else if (any_timeout) {
      out.status = CspResult::Status::kTimeout;
    } else if (any_nodelimit) {
      out.status = CspResult::Status::kNodeLimit;
    } else {
      // Every block exhausted its slice of the root domain, and the
      // slices partition it: a complete infeasibility proof.
      out.status = CspResult::Status::kInfeasible;
    }
  }
  if (!truncated && out.status != CspResult::Status::kCancelled &&
      out.status != CspResult::Status::kTimeout) {
    for (int b = 0; b <= stat_hi; ++b) {
      const std::vector<CspNogood>& learned =
          results[static_cast<std::size_t>(b)].learned;
      out.learned.insert(out.learned.end(), learned.begin(), learned.end());
    }
  }
  return out;
}

CspResult solve(const ProblemSpec& spec, const Palettes& palettes,
                const CspOptions& options, bool reference_scan) {
  spec.validate();
  HT_TRACE_SPAN("csp/solve", "max_nodes", options.max_nodes);
  if (options.subtree_split > 1) {
    return split_solve(spec, palettes, options, reference_scan);
  }
  Search search(spec, palettes, options, reference_scan);
  return search.run();
}

}  // namespace

CspResult schedule_and_bind(const ProblemSpec& spec, const Palettes& palettes,
                            const CspOptions& options) {
  return solve(spec, palettes, options, /*reference_scan=*/false);
}

namespace detail {

CspResult solve_with_reference_scan(const ProblemSpec& spec,
                                    const Palettes& palettes,
                                    const CspOptions& options) {
  return solve(spec, palettes, options, /*reference_scan=*/true);
}

}  // namespace detail

}  // namespace ht::core
