// Statistics helpers used by benchmarks and the evaluation harness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace tamp::util {

// Streaming mean / variance / min / max (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);
  void reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Stores samples and answers percentile queries. Intended for latency
// distributions in the evaluation harness (sample counts are modest).
class Percentiles {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // q in [0, 1]; linear interpolation between closest ranks.
  double percentile(double q);
  double median() { return percentile(0.5); }
  double p95() { return percentile(0.95); }
  double p99() { return percentile(0.99); }
  double p999() { return percentile(0.999); }
  double mean() const;
  double max();
  void reset() {
    samples_.clear();
    sorted_ = false;
  }

 private:
  void ensure_sorted();
  std::vector<double> samples_;
  bool sorted_ = false;
};

}  // namespace tamp::util
