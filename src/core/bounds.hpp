// Combinatorial lower bounds for the license-set branch-and-bound.
//
// The license-set search enumerates palettes cheapest-first and asks a CSP
// whether each admits a design. Everything here is a *relaxation* of that
// CSP: each bound reasons only about aggregate instance counts, vendor
// counts and license prices, so a bound that refutes a palette (or prices
// the whole market above an incumbent) is a complete proof — the CSP solve
// can be skipped without changing any status or cost. The engine consumes
// the dispatch window for every bound-pruned set exactly like a screen
// skip, so the (cost, palette index) commit discipline is untouched: a
// bound may only skip palettes, never reorder winners.
//
// Bound hierarchy (weakest to strongest, all computed once per spec):
//   1. Energetic interval floors: within one phase, an op whose whole
//      feasible occupancy [ASAP, ALAP + latency - 1] lies inside a window
//      [a, b] contributes its full latency to that window no matter how it
//      is scheduled. Maximizing ceil(demand / width) over all windows
//      lower-bounds the concurrent instances of each class — strictly
//      stronger than the single-cycle mandatory-profile peak used by the
//      static screens (a window can be saturated even when no single cycle
//      is).
//   2. Vendor-count floors: instance floors divided by the per-offer
//      instance cap, combined with the conflict-clique diversity floors
//      (rules::min_vendors_per_class) — the minimum number of *distinct*
//      licenses per class in any feasible design.
//   3. Cost floor: pricing the vendor-count floors with the cheapest
//      catalog licenses of each class gives a lower bound on the license
//      cost of ANY feasible solution (a solution is billed for the
//      licenses it uses, and it must use at least the floor).

#pragma once

#include <array>

#include "core/csp_solver.hpp"  // Palettes
#include "core/problem.hpp"

namespace ht::core {

class LowerBounds {
 public:
  /// Precomputes every floor. Requires both phase latency bounds to be at
  /// or above the critical path (the engine's ALAP precheck guarantees it;
  /// dfg::alap_levels throws util::InfeasibleError otherwise).
  explicit LowerBounds(const ProblemSpec& spec);

  /// Minimum concurrent instances of each class in any feasible schedule
  /// (max of both phases' energetic interval floors).
  const std::array<int, dfg::kNumResourceClasses>& instance_floors() const {
    return instance_floor_;
  }

  /// Minimum distinct licenses of each class in any feasible design.
  const std::array<int, dfg::kNumResourceClasses>& vendor_floors() const {
    return vendor_floor_;
  }

  /// Lower bound on the license cost of any feasible solution: the
  /// vendor-count floors priced with the cheapest licenses per class.
  long long global_cost_lb() const { return global_cost_lb_; }

  /// Complete refutation test for one palette: true when the palette
  /// cannot supply the instance floors (|palette_c| * cap < floor_c) or
  /// when the floors priced at the palette's *smallest* per-class areas
  /// already overrun the area limit. A true return is a proof of
  /// infeasibility for every schedule under this palette.
  bool refutes(const Palettes& palettes) const;

 private:
  const ProblemSpec& spec_;
  std::array<int, dfg::kNumResourceClasses> instance_floor_{};
  std::array<int, dfg::kNumResourceClasses> vendor_floor_{};
  long long global_cost_lb_ = 0;
};

}  // namespace ht::core
