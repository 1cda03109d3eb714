// Small branch-free kernels over packed vendor/cycle words.
//
// The CSP inner loop spends its time in three shapes of scan: "does cycle t
// fall in any of these literal ranges" (nogood propagation), "which vendors
// survive this 24-bit mask" (domain maintenance), and "max occupancy over a
// cycle interval" (resource feasibility / skyline queries). This header
// packs those scans into word-parallel primitives shared by the solver, the
// skyline, and the hot-path microbenchmarks, so the batching is written —
// and benchmarked — exactly once.
//
// Cycle values must fit 15 bits (the SWAR compares reserve the per-lane top
// bit as the borrow sentinel). core::ProblemSpec::validate rejects latency
// bounds at or above kSwarCycleLimit, so every solver cycle fits.
#pragma once

#include <cstdint>

namespace ht::util {

/// Exclusive upper bound on cycle numbers the 16-bit-lane compares accept.
constexpr int kSwarCycleLimit = 1 << 15;

/// Top bit of each 16-bit lane: the compare sentinel.
constexpr std::uint64_t kLaneHigh16 = 0x8000800080008000ull;

/// Broadcasts a 15-bit value into all four 16-bit lanes.
inline std::uint64_t swar16_broadcast(int value) {
  return static_cast<std::uint64_t>(static_cast<std::uint16_t>(value)) *
         0x0001000100010001ull;
}

/// Per-lane unsigned a >= b for four 16-bit lanes, both operands < 2^15.
/// Result has the lane's top bit set where the compare holds.
inline std::uint64_t swar16_ge(std::uint64_t a, std::uint64_t b) {
  return ((a | kLaneHigh16) - b) & kLaneHigh16;
}

/// Lanes where lo <= cycle <= hi, all 15-bit; `cycle` is pre-broadcast.
inline std::uint64_t swar16_in_range(std::uint64_t cycle_bcast,
                                     std::uint64_t lo_lanes,
                                     std::uint64_t hi_lanes) {
  return swar16_ge(cycle_bcast, lo_lanes) & swar16_ge(hi_lanes, cycle_bcast);
}

/// Index (0..3) of the first set lane of a swar16 compare result.
inline int swar16_first_lane(std::uint64_t lanes) {
  return __builtin_ctzll(lanes) >> 4;
}

/// One nogood-literal range packed as lo<<16 | hi (cycles < 2^15).
inline std::uint32_t pack_cycle_range(int lo, int hi) {
  return (static_cast<std::uint32_t>(lo) << 16) |
         static_cast<std::uint32_t>(hi);
}

/// cycle in [lo, hi] for a packed range, one compare, no branches: the
/// unsigned subtraction folds both bounds into a single wraparound test.
inline bool packed_range_contains(std::uint32_t packed, int cycle) {
  const std::uint32_t lo = packed >> 16;
  const std::uint32_t hi = packed & 0xffffu;
  return static_cast<std::uint32_t>(cycle) - lo <= hi - lo;
}

/// Max over `len` ints starting at `row` (len >= 1). Unrolled four-wide so
/// the occupancy-interval scans in the solver and the skyline window
/// queries autovectorize; equivalent to std::max_element by value.
inline int range_max_i32(const int* row, int len) {
  int m0 = row[0], m1 = m0, m2 = m0, m3 = m0;
  int i = 1;
  for (; i + 3 < len; i += 4) {
    if (row[i] > m0) m0 = row[i];
    if (row[i + 1] > m1) m1 = row[i + 1];
    if (row[i + 2] > m2) m2 = row[i + 2];
    if (row[i + 3] > m3) m3 = row[i + 3];
  }
  for (; i < len; ++i) {
    if (row[i] > m0) m0 = row[i];
  }
  if (m1 > m0) m0 = m1;
  if (m2 > m0) m0 = m2;
  if (m3 > m0) m0 = m3;
  return m0;
}

}  // namespace ht::util
