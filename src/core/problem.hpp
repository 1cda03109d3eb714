// Problem specification for Trojan-tolerant scheduling and binding.
//
// A ProblemSpec is everything the paper's Section 4 gives the designer: the
// DFG to implement, the vendor/IP catalog, latency bounds for the detection
// phase (which holds the normal computation NC and the re-computation RC)
// and the recovery phase, a total silicon-area bound, and the set of design
// rules to enforce.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "dfg/dfg.hpp"
#include "vendor/catalog.hpp"

namespace ht::core {

/// Hard cap on catalog vendors, shared by every solver layer. The CSP
/// solver and the infeasibility dominance cache encode vendor sets as
/// 64-bit masks, and palette enumeration materializes per-class vendor
/// subsets — tractable only well below the mask width. One constant so the
/// layers cannot drift apart: a catalog accepted by the enumerator is
/// always representable by the bitmask engines, and vice versa.
inline constexpr int kMaxVendors = 24;

/// Exclusive cap on DFG operations. The CSP packs a copy id (up to three
/// copies per op) and its constraint degree (at most four per op) into
/// 20-bit fields of one selection key; 2^18 ops keeps both in range.
/// Latency bounds have a cap of their own, util::kSwarCycleLimit
/// (util/mask_kernels.hpp): nogood cycle ranges pack into 15-bit lanes.
inline constexpr int kMaxOps = 1 << 18;

/// Which of the paper's design rules are active. All default on; benches
/// toggle them for ablations, and `sibling_diversity_all_copies` selects
/// between the paper's literal equation (7) (NC only) and the symmetric
/// reading of Rule 2 (NC, RC and recovery alike).
struct RuleConfig {
  /// Detection Rule 1: op i in NC and op i in RC use different vendors.
  bool detection_same_op = true;
  /// Detection Rule 2 (part 1): parent and child ops use different vendors
  /// (applied within NC, within RC, and within recovery — the paper's
  /// equation (6) ranges over all three schedules).
  bool detection_parent_child = true;
  /// Detection Rule 2 (part 2): two ops feeding the same child use
  /// different vendors.
  bool detection_sibling = true;
  /// Apply the sibling rule in RC and recovery too (symmetric reading).
  /// Default false: only NC is constrained, exactly the paper's equation
  /// (7) — and the setting under which the paper's Figure-5 optimum of
  /// $4160 is achievable (the symmetric reading over-constrains the
  /// 4-vendor motivational example; see DESIGN.md).
  bool sibling_diversity_all_copies = false;
  /// Recovery Rule 1: op i in recovery avoids both vendors op i used in the
  /// detection phase.
  bool recovery_same_op = true;
  /// Recovery Rule 2: an op in recovery also avoids the vendors its
  /// closely-related ops used in the detection phase.
  bool recovery_close_pairs = true;
};

/// A scheduling/binding problem instance.
struct ProblemSpec {
  dfg::Dfg graph;
  vendor::Catalog catalog{1};

  /// Detection-phase latency bound (cycles available to NC and RC).
  int lambda_detection = 0;
  /// Recovery-phase latency bound; ignored when `with_recovery` is false.
  int lambda_recovery = 0;
  /// False reproduces the detection-only baseline of Rajendran et al.
  /// (the paper's Table 3); true is the paper's full scheme (Table 4).
  bool with_recovery = true;

  /// Total area bound over all instantiated IP cores (unit cells).
  long long area_limit = 0;

  /// Cap on instances of one (vendor, class) offer; 0 derives a sufficient
  /// default (the number of DFG ops of that class).
  int max_instances_per_offer = 0;

  /// Execution latency, in cycles, of each resource class (indexed by
  /// ResourceClass). The paper assumes single-cycle units; raising e.g.
  /// the multiplier latency to 2 models pipelined-free multi-cycle cores —
  /// an op occupies its instance for the whole interval and its consumers
  /// wait for the result. Supported by the CSP/greedy optimizer stack;
  /// the faithful ILP and the RTL back end require unit latencies.
  std::array<int, dfg::kNumResourceClasses> class_latency{1, 1, 1};

  RuleConfig rules;

  /// Unordered same-type op pairs with closely-related inputs (recovery
  /// Rule 2). May be empty; ht_trojan can derive it by profiling.
  std::vector<std::pair<dfg::OpId, dfg::OpId>> closely_related;

  /// Effective instance cap for one offer.
  int instance_cap(dfg::ResourceClass rc) const;

  /// Execution latency of one operation under `class_latency`.
  int op_latency(dfg::OpId op) const;

  /// Per-op latency vector for the dfg:: analysis overloads.
  std::vector<int> op_latencies() const;

  /// True when every class executes in one cycle (the paper's model).
  bool unit_latency() const;

  /// Throws util::SpecError when inconsistent (empty graph, non-positive
  /// bounds, close pairs of mismatched type, vendors missing a needed
  /// class entirely, ...) or too large for the solvers: kMaxOps or more
  /// ops, or a latency bound in use at or above util::kSwarCycleLimit.
  void validate() const;
};

/// Convenience constructor used by benches and tests: benchmark graph plus
/// one Table-3/Table-4 row. For detection-only rows `lambda` bounds the
/// detection phase; for recovery rows it bounds the *total* schedule and
/// the split between the phases is left to the optimizer (this helper
/// stores the total in `lambda_detection` + `lambda_recovery` via an even
/// critical-path-aware split; the optimizer tries all splits).
ProblemSpec make_detection_only_spec(dfg::Dfg graph, vendor::Catalog catalog,
                                     int lambda, long long area_limit);

}  // namespace ht::core
