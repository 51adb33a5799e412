#pragma once
// Streaming statistics used throughout the simulator and benches.

#include <cstdint>
#include <limits>

namespace noc {

/// Numerically-stable running mean/variance (Welford) with min/max.
class RunningStat {
 public:
  void add(double x);
  void reset();

  int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;   // population variance
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace noc
