// Incremental cycle-occupancy skyline.
//
// An OccupancySkyline is the profile "how many instances (and how much
// area) are busy at each control step" over cycles 1..lambda, maintained by
// interval deltas: placing an operation adds +k instances over its
// occupancy interval in O(latency), removing it subtracts the same. Peak
// queries are O(1) after additions; removals invalidate the cached peak
// lazily and the next peak query rescans once. This is the structure behind
// both resource feasibility ("would one more copy here exceed the cap?")
// and the area accounting of a partial schedule — the CSP solver maintains
// the same rows per (phase, vendor, class) with trailed deltas and answers
// its interval queries through the shared `row_peak` kernel below, and
// tests/skyline_test.cpp pins delta maintenance against full rebuilds on
// randomized add/remove sequences.
//
// `energetic_interval_floor` is the window-demand lower bound from
// core/bounds.cpp hoisted onto the same cycle-bucket representation: the
// max over windows [a, b] of ceil(total demand of items confined to the
// window / window width). bounds.cpp calls it per (phase, class); keeping
// it here lets the property tests compare it against the brute-force
// definition independently of LowerBounds.
#pragma once

#include <cstdint>
#include <vector>

#include "util/mask_kernels.hpp"

namespace ht::core {

/// Max occupancy over the interval [start, start + len) of a cycle row
/// whose index 0 holds cycle 1 — the in-search resource check, shared with
/// OccupancySkyline so solver rows and skyline rows agree by construction.
inline int row_peak(const int* row_cycle1, int start, int len) {
  return util::range_max_i32(row_cycle1 + (start - 1), len);
}

class OccupancySkyline {
 public:
  OccupancySkyline() = default;
  explicit OccupancySkyline(int lambda) { reset(lambda); }

  /// Re-dimensions to cycles 1..lambda, all-empty.
  void reset(int lambda);

  int lambda() const { return lambda_; }
  int instances_at(int cycle) const {
    return instances_[static_cast<std::size_t>(cycle - 1)];
  }
  long long area_at(int cycle) const {
    return area_[static_cast<std::size_t>(cycle - 1)];
  }

  /// Adds `instances` / `area` over cycles [start, start + len).
  void add(int start, int len, int instances, long long area);
  /// Exact inverse of add with the same arguments.
  void remove(int start, int len, int instances, long long area);

  /// Max instance occupancy over [start, start + len).
  int max_instances_in(int start, int len) const {
    return row_peak(instances_.data(), start, len);
  }

  /// Global peaks; O(1) after adds, one rescan after any removal.
  int peak_instances() const;
  long long peak_area() const;

 private:
  int lambda_ = 0;
  std::vector<int> instances_;    // index 0 = cycle 1
  std::vector<long long> area_;
  mutable int peak_instances_ = 0;
  mutable long long peak_area_ = 0;
  mutable bool peak_dirty_ = false;
};

/// One demand item for the energetic floor: an op whose whole feasible
/// occupancy is [lo, hi] contributing `demand` busy-cycles (weighted
/// latency) to any window that contains it.
struct EnergeticItem {
  int lo = 0;
  int hi = 0;
  long long demand = 0;
};

/// Max over windows [a, b] within [1, lambda] of
/// ceil(sum of demand of items with a <= lo and hi <= b, / (b - a + 1)).
/// Items must satisfy lo <= hi. Bit-identical to the full sweep over every
/// window, at a cost set by the item count rather than by lambda.
int energetic_interval_floor(const std::vector<EnergeticItem>& items,
                             int lambda);

}  // namespace ht::core
