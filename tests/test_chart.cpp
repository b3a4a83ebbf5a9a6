// Sparkline renderer tests.
#include <gtest/gtest.h>

#include "stats/chart.hpp"

namespace {

using upcws::stats::sparkline;

TEST(Sparkline, MapsMinToBlankAndMaxToDensest) {
  const std::string s = sparkline({0, 5, 10}, 3);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.front(), ' ');
  EXPECT_EQ(s.back(), '@');
}

TEST(Sparkline, ResamplesByCellMaximum) {
  // 100 points, one spike: the spike survives resampling to 10 cells.
  std::vector<double> ys(100, 0.0);
  ys[37] = 42.0;
  const std::string s = sparkline(ys, 10);
  ASSERT_EQ(s.size(), 10u);
  EXPECT_NE(s.find('@'), std::string::npos);
}

TEST(Sparkline, FlatAndEmptySeriesSafe) {
  EXPECT_EQ(sparkline({}, 10), "(empty series)");
  const std::string flat = sparkline({7, 7, 7}, 3);
  ASSERT_EQ(flat.size(), 3u);
  // A flat series renders uniformly (no divide-by-zero artifacts).
  EXPECT_EQ(flat[0], flat[1]);
  EXPECT_EQ(flat[1], flat[2]);
}

}  // namespace
