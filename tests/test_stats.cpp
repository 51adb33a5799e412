#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace noc {
namespace {

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

}  // namespace
}  // namespace noc
