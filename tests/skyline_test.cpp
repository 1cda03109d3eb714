// Property tests for the incremental occupancy skyline and the energetic
// interval floor (core/skyline.hpp). The solver's claim is that interval
// delta maintenance — O(latency) per assignment, lazy peak revalidation
// after removals — is indistinguishable from rebuilding the profile from
// the live assignment set, and that the bucketed energetic floor equals
// the brute-force over-all-windows definition.
#include "core/skyline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace ht::core {
namespace {

struct Placement {
  int start = 0;
  int len = 0;
  int instances = 0;
  long long area = 0;
};

/// Reference profile: rebuild from scratch from the live placement set.
struct RebuiltProfile {
  std::vector<int> instances;
  std::vector<long long> area;

  explicit RebuiltProfile(int lambda, const std::vector<Placement>& live)
      : instances(static_cast<std::size_t>(lambda), 0),
        area(static_cast<std::size_t>(lambda), 0) {
    for (const Placement& p : live) {
      for (int cycle = p.start; cycle < p.start + p.len; ++cycle) {
        instances[static_cast<std::size_t>(cycle - 1)] += p.instances;
        area[static_cast<std::size_t>(cycle - 1)] += p.area;
      }
    }
  }
};

TEST(SkylineTest, DeltaUpdatesEqualFullRebuildRandomized) {
  util::Rng rng(1234);
  const int lambda = 23;
  OccupancySkyline sky(lambda);
  std::vector<Placement> live;
  for (int step = 0; step < 4000; ++step) {
    const bool remove = !live.empty() && rng.chance(0.45);
    if (remove) {
      const std::size_t at = rng.index(live.size());
      const Placement p = live[at];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      sky.remove(p.start, p.len, p.instances, p.area);
    } else {
      Placement p;
      p.len = static_cast<int>(rng.uniform_int(1, 6));
      p.start = static_cast<int>(rng.uniform_int(1, lambda - p.len + 1));
      p.instances = static_cast<int>(rng.uniform_int(1, 3));
      p.area = rng.uniform_int(10, 500);
      live.push_back(p);
      sky.add(p.start, p.len, p.instances, p.area);
    }
    const RebuiltProfile ref(lambda, live);
    for (int cycle = 1; cycle <= lambda; ++cycle) {
      ASSERT_EQ(sky.instances_at(cycle),
                ref.instances[static_cast<std::size_t>(cycle - 1)])
          << "step " << step << " cycle " << cycle;
      ASSERT_EQ(sky.area_at(cycle),
                ref.area[static_cast<std::size_t>(cycle - 1)])
          << "step " << step << " cycle " << cycle;
    }
    // Peaks: exact after adds, lazily revalidated after removals.
    const int want_peak =
        *std::max_element(ref.instances.begin(), ref.instances.end());
    const long long want_area =
        *std::max_element(ref.area.begin(), ref.area.end());
    ASSERT_EQ(sky.peak_instances(), std::max(want_peak, 0)) << "step " << step;
    ASSERT_EQ(sky.peak_area(), std::max<long long>(want_area, 0))
        << "step " << step;
    // Window queries go through the shared row_peak kernel.
    const int qlen = static_cast<int>(rng.uniform_int(1, lambda));
    const int qstart = static_cast<int>(rng.uniform_int(1, lambda - qlen + 1));
    int want_window = 0;
    for (int cycle = qstart; cycle < qstart + qlen; ++cycle) {
      want_window = std::max(
          want_window, ref.instances[static_cast<std::size_t>(cycle - 1)]);
    }
    ASSERT_EQ(sky.max_instances_in(qstart, qlen), want_window)
        << "step " << step;
  }
}

TEST(SkylineTest, RowPeakMatchesMaxElementOnAllOffsets) {
  // The 4-wide unrolled kernel must agree with std::max_element for every
  // (start, len) alignment, including the scalar tail cases.
  util::Rng rng(99);
  std::vector<int> row(37);
  for (int& cell : row) cell = static_cast<int>(rng.uniform_int(-50, 50));
  for (int start = 1; start <= static_cast<int>(row.size()); ++start) {
    for (int len = 1; start + len - 1 <= static_cast<int>(row.size());
         ++len) {
      const int want = *std::max_element(
          row.begin() + (start - 1), row.begin() + (start - 1) + len);
      ASSERT_EQ(row_peak(row.data(), start, len), want)
          << "start " << start << " len " << len;
    }
  }
}

/// Brute-force energetic floor: every window [a, b], every item fully
/// confined to it contributes its demand; the floor is the max ceiling of
/// demand over width.
int brute_force_floor(const std::vector<EnergeticItem>& items, int lambda) {
  int floor = 0;
  for (int a = 1; a <= lambda; ++a) {
    for (int b = a; b <= lambda; ++b) {
      long long demand = 0;
      for (const EnergeticItem& item : items) {
        if (item.lo >= a && item.hi <= b) demand += item.demand;
      }
      const long long width = b - a + 1;
      floor = std::max(
          floor, static_cast<int>((demand + width - 1) / width));
    }
  }
  return floor;
}

TEST(SkylineTest, EnergeticFloorEqualsBruteForceRandomized) {
  util::Rng rng(4321);
  for (int round = 0; round < 300; ++round) {
    // Every third round draws a few sparse items on a wide horizon, where
    // most windows contain nothing and the item bounds are far apart.
    const bool wide = round % 3 == 2;
    const int lambda = static_cast<int>(
        wide ? rng.uniform_int(15, 400) : rng.uniform_int(1, 14));
    const int n = static_cast<int>(rng.uniform_int(0, wide ? 8 : 12));
    std::vector<EnergeticItem> items;
    for (int i = 0; i < n; ++i) {
      EnergeticItem item;
      item.lo = static_cast<int>(rng.uniform_int(1, lambda));
      const int span_cap =
          wide && rng.chance(0.7) ? std::min(lambda, item.lo + 20) : lambda;
      item.hi = static_cast<int>(rng.uniform_int(item.lo, span_cap));
      item.demand = rng.uniform_int(1, 40);
      items.push_back(item);
    }
    ASSERT_EQ(energetic_interval_floor(items, lambda),
              brute_force_floor(items, lambda))
        << "round " << round << " lambda " << lambda;
  }
}

TEST(SkylineTest, EnergeticFloorEmptyAndSingleton) {
  EXPECT_EQ(energetic_interval_floor({}, 5), 0);
  std::vector<EnergeticItem> one = {{2, 4, 9}};
  // Tightest containing window is [2, 4]: ceil(9 / 3) = 3.
  EXPECT_EQ(energetic_interval_floor(one, 6), 3);
}

}  // namespace
}  // namespace ht::core
