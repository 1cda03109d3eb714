#include "core/skyline.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace ht::core {

void OccupancySkyline::reset(int lambda) {
  lambda_ = lambda;
  instances_.assign(static_cast<std::size_t>(lambda), 0);
  area_.assign(static_cast<std::size_t>(lambda), 0);
  peak_instances_ = 0;
  peak_area_ = 0;
  peak_dirty_ = false;
}

void OccupancySkyline::add(int start, int len, int instances,
                           long long area) {
  util::check_internal(start >= 1 && start + len - 1 <= lambda_,
                       "skyline: interval outside 1..lambda");
  for (int cycle = start; cycle < start + len; ++cycle) {
    const std::size_t i = static_cast<std::size_t>(cycle - 1);
    instances_[i] += instances;
    area_[i] += area;
    // Adds only raise cells, so the cached peaks stay exact (when clean).
    if (!peak_dirty_) {
      peak_instances_ = std::max(peak_instances_, instances_[i]);
      peak_area_ = std::max(peak_area_, area_[i]);
    }
  }
}

void OccupancySkyline::remove(int start, int len, int instances,
                              long long area) {
  util::check_internal(start >= 1 && start + len - 1 <= lambda_,
                       "skyline: interval outside 1..lambda");
  for (int cycle = start; cycle < start + len; ++cycle) {
    const std::size_t i = static_cast<std::size_t>(cycle - 1);
    instances_[i] -= instances;
    area_[i] -= area;
  }
  // A removal can lower the peak; recompute lazily on the next query.
  peak_dirty_ = true;
}

int OccupancySkyline::peak_instances() const {
  if (peak_dirty_) {
    peak_instances_ =
        lambda_ == 0 ? 0 : util::range_max_i32(instances_.data(), lambda_);
    peak_area_ = 0;
    for (long long a : area_) peak_area_ = std::max(peak_area_, a);
    peak_dirty_ = false;
  }
  return peak_instances_;
}

long long OccupancySkyline::peak_area() const {
  peak_instances();  // refreshes both caches
  return peak_area_;
}

int energetic_interval_floor(const std::vector<EnergeticItem>& items,
                             int lambda) {
  // Only windows [a, b] with a = some item's lo and b = some item's hi can
  // attain the max: shrinking any window to the tightest bounds of the
  // items it contains keeps its demand and narrows its width. So sweep
  // window starts over the distinct lo values, latest first, adding the
  // items that start there into per-hi buckets; each start then scans the
  // distinct hi values in order, accumulating demand. O(n log n + L * H)
  // for L distinct starts and H distinct ends, independent of lambda.
  std::vector<const EnergeticItem*> confined;
  std::vector<int> ends;
  for (const EnergeticItem& item : items) {
    if (item.lo >= 1 && item.hi <= lambda) {
      confined.push_back(&item);
      ends.push_back(item.hi);
    }
  }
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  std::sort(confined.begin(), confined.end(),
            [](const EnergeticItem* x, const EnergeticItem* y) {
              return x->lo > y->lo;
            });
  const auto end_rank = [&](int hi) {
    return static_cast<std::size_t>(
        std::lower_bound(ends.begin(), ends.end(), hi) - ends.begin());
  };
  std::vector<long long> ending(ends.size(), 0);
  int floor = 0;
  for (std::size_t i = 0; i < confined.size();) {
    const int a = confined[i]->lo;
    for (; i < confined.size() && confined[i]->lo == a; ++i) {
      ending[end_rank(confined[i]->hi)] += confined[i]->demand;
    }
    long long demand = 0;
    for (std::size_t h = end_rank(a); h < ends.size(); ++h) {
      demand += ending[h];
      const long long width = ends[h] - a + 1;
      const long long need = (demand + width - 1) / width;
      floor = std::max(floor, static_cast<int>(need));
    }
  }
  return floor;
}

}  // namespace ht::core
