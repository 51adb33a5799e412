#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace noc {

void RunningStat::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::reset() { *this = RunningStat{}; }

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

}  // namespace noc
