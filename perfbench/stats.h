// Latency histogram and small statistics helpers for the benchmark.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace perfbench {

// Log-linear histogram of non-negative integer samples (nanoseconds):
// exact below 256, then 256 buckets per power of two (under 0.4% relative
// width). Percentiles interpolate linearly inside the bucket that holds the
// rank, so they are not snapped to bucket edges. The library's own
// src/util/histogram.h is not used: it is part of the code under test, its
// ~3% buckets report edge values that repeat from run to run, and its
// atomic counters would add to the cost of every timed op.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void Record(int64_t value) {
    ++counts_[Bucket(value < 0 ? 0 : static_cast<uint64_t>(value))];
    ++total_;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }

  uint64_t count() const { return total_; }

  // Value at quantile q in [0, 1]; 0 for an empty histogram.
  double Percentile(double q) const {
    if (total_ == 0) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(total_);
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) {
        continue;
      }
      if (static_cast<double>(seen + counts_[i]) >= rank) {
        const double inside = (rank - static_cast<double>(seen)) /
                              static_cast<double>(counts_[i]);
        return static_cast<double>(Lower(i)) +
               inside * static_cast<double>(Width(i));
      }
      seen += counts_[i];
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }

 private:
  static constexpr uint64_t kSub = 256;
  static constexpr int kSubBits = 8;
  static constexpr int kMaxExp = 40;  // values clamp at 2^41 ns (~37 min)
  static constexpr size_t kBuckets = kSub + (kMaxExp - kSubBits + 1) * kSub;

  static size_t Bucket(uint64_t v) {
    if (v < kSub) {
      return v;
    }
    int e = std::bit_width(v) - 1;
    if (e > kMaxExp) {
      e = kMaxExp;
      v = (uint64_t{2} << kMaxExp) - 1;
    }
    const uint64_t mantissa = (v >> (e - kSubBits)) - kSub;
    return kSub + static_cast<size_t>(e - kSubBits) * kSub + mantissa;
  }
  static uint64_t Lower(size_t i) {
    if (i < kSub) {
      return i;
    }
    const size_t e = (i - kSub) / kSub + kSubBits;
    const uint64_t mantissa = (i - kSub) % kSub + kSub;
    return mantissa << (e - kSubBits);
  }
  static uint64_t Width(size_t i) {
    return i < kSub ? 1 : uint64_t{1} << ((i - kSub) / kSub);
  }

  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

// Median of the values (mean of the middle two for an even count); 0 when
// empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// num / den, or 0 when den is 0.
inline double Ratio(double num, double den) {
  return den == 0 ? 0.0 : num / den;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
