#include "stats/chart.hpp"

#include <algorithm>
#include <cmath>

namespace upcws::stats {

std::string sparkline(const std::vector<double>& ys, int width) {
  static constexpr char kRamp[] = " .:-=+*#%@";
  static constexpr int kLevels = static_cast<int>(sizeof kRamp) - 2;  // 0..9
  if (ys.empty() || width < 1) return "(empty series)";
  double lo = ys.front(), hi = ys.front();
  for (double y : ys) {
    lo = std::min(lo, y);
    hi = std::max(hi, y);
  }
  const int cells = std::min<int>(width, static_cast<int>(ys.size()));
  std::string out(static_cast<std::size_t>(cells), ' ');
  for (int c = 0; c < cells; ++c) {
    // Per-cell maximum over the cell's slice of the series, so a narrow
    // spike survives downsampling instead of averaging away.
    const std::size_t b = static_cast<std::size_t>(c) * ys.size() /
                          static_cast<std::size_t>(cells);
    const std::size_t e = static_cast<std::size_t>(c + 1) * ys.size() /
                          static_cast<std::size_t>(cells);
    double v = ys[b];
    for (std::size_t i = b; i < e; ++i) v = std::max(v, ys[i]);
    const int lvl =
        hi > lo ? static_cast<int>(std::lround((v - lo) / (hi - lo) * kLevels))
                : (v > 0 ? kLevels : 0);
    out[static_cast<std::size_t>(c)] = kRamp[std::clamp(lvl, 0, kLevels)];
  }
  return out;
}

}  // namespace upcws::stats
