#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The benchmark's own arithmetic: percentiles under the ten-samples-beyond
// rule, a fine-grained latency histogram for the sub-microsecond read
// paths, failure accounting, and the open-loop schedule. Header-only and
// free of library dependencies so the tests exercise it directly.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Percentiles a report may quote, lowest first.
inline constexpr std::array<double, 4> kQuotablePercentiles = {50.0, 90.0,
                                                               99.0, 99.9};

/// Samples strictly above the `p`th percentile of `n` samples.
inline uint64_t SamplesBeyond(uint64_t n, double p) {
  const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
  return static_cast<uint64_t>(std::floor(beyond + 1e-9));
}

/// A percentile is reportable only when at least ten samples lie beyond
/// it: the tail a single outlier cannot decide.
inline bool Reportable(uint64_t n, double p) {
  return n > 0 && SamplesBeyond(n, p) >= 10;
}

/// Linear-interpolated percentile of `samples` (sorted in place), the
/// same rule as numpy's default. 0 for an empty set.
inline double Percentile(std::vector<double>* samples, double p) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const double rank = p / 100.0 * static_cast<double>(samples->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*samples)[lo] + frac * ((*samples)[hi] - (*samples)[lo]);
}

inline double Median(std::vector<double> samples) {
  return Percentile(&samples, 50.0);
}

/// The `p`th percentile of `samples[begin, end)`; `samples` keeps its order.
inline double RangePercentile(const std::vector<double>& samples, size_t begin,
                              size_t end, double p) {
  using Diff = std::ptrdiff_t;
  std::vector<double> range(samples.begin() + static_cast<Diff>(begin),
                            samples.begin() + static_cast<Diff>(end));
  return Percentile(&range, p);
}

/// `[begin, end)` ranges of `slices` contiguous runs over `n` operations
/// in the order they ran, cut at multiples of `unit` so that each holds
/// whole repeats of a workload's pattern. A trailing partial repeat is
/// left out; ranges that would be empty are skipped.
inline std::vector<std::pair<size_t, size_t>> SliceRanges(size_t n,
                                                          size_t unit,
                                                          int slices) {
  const size_t repeats = unit == 0 ? 0 : n / unit;
  const size_t k = static_cast<size_t>(slices);
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t i = 0; i < k; ++i) {
    const size_t begin = repeats * i / k * unit;
    const size_t end = repeats * (i + 1) / k * unit;
    if (end > begin) out.emplace_back(begin, end);
  }
  return out;
}

/// `num / den`, 0 when there is nothing to divide by (a counter the
/// workload never moved).
inline double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Nanosecond latency histogram for paths too hot to keep every sample
/// (millions of snapshot reads per second): 1 ns buckets below 8 µs,
/// then 64 ns buckets up to ~1 ms, then one overflow bucket. Percentiles
/// interpolate linearly inside the bucket holding the rank. One instance
/// per thread; `Merge` combines them.
class NsHistogram {
 public:
  static constexpr uint64_t kFineLimit = 8192;
  static constexpr uint64_t kCoarseWidth = 64;
  static constexpr uint64_t kCoarseLimit = 1u << 20;
  static constexpr size_t kBuckets =
      kFineLimit + (kCoarseLimit - kFineLimit) / kCoarseWidth + 1;

  NsHistogram() : counts_(kBuckets, 0) {}

  void Record(uint64_t ns) {
    ++counts_[BucketOf(ns)];
    ++total_;
    sum_ns_ += ns;
    max_ns_ = std::max(max_ns_, ns);
  }

  void Merge(const NsHistogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
    sum_ns_ += o.sum_ns_;
    max_ns_ = std::max(max_ns_, o.max_ns_);
  }

  uint64_t count() const { return total_; }
  uint64_t sum_ns() const { return sum_ns_; }

  double PercentileNs(double p) const {
    if (total_ == 0) return 0;
    const double rank = p / 100.0 * static_cast<double>(total_);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (static_cast<double>(seen + counts_[b]) >= rank) {
        const double frac = (rank - static_cast<double>(seen)) /
                            static_cast<double>(counts_[b]);
        const double lo = static_cast<double>(BucketLow(b));
        const double width =
            b + 1 == kBuckets
                ? static_cast<double>(max_ns_) - lo
                : static_cast<double>(BucketLow(b + 1)) - lo;
        return lo + std::clamp(frac, 0.0, 1.0) * width;
      }
      seen += counts_[b];
    }
    return static_cast<double>(max_ns_);
  }

  static size_t BucketOf(uint64_t ns) {
    if (ns < kFineLimit) return static_cast<size_t>(ns);
    if (ns < kCoarseLimit) {
      return static_cast<size_t>(kFineLimit + (ns - kFineLimit) / kCoarseWidth);
    }
    return kBuckets - 1;
  }

  static uint64_t BucketLow(size_t b) {
    if (b < kFineLimit) return b;
    if (b + 1 < kBuckets) return kFineLimit + (b - kFineLimit) * kCoarseWidth;
    return kCoarseLimit;
  }

 private:
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
  uint64_t sum_ns_ = 0;
  uint64_t max_ns_ = 0;
};

/// Operations attempted against operations that failed. A failure is a
/// wrong answer, an undecided (`kUnknown`) answer, a pass that did not
/// complete, or an error status — each counted once per operation, no
/// matter how many of its checks tripped.
class OpTally {
 public:
  /// Records one operation; `ok` is false when any check of it failed.
  void Record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A failure found after the operation was counted (a deferred check
  /// replayed at the end of the run) — it does not add an attempt.
  void FailLater(uint64_t n = 1) { failed_ += n; }
  void Merge(const OpTally& o) {
    attempted_ += o.attempted_;
    failed_ += o.failed_;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return std::min(failed_, attempted_); }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Open-loop arrivals at a fixed rate: request k is due at
/// `start + k * period`, whatever happened to request k-1. Latency is
/// measured from the due time, so a stall also charges the requests that
/// queued behind it, and lateness says how far the generator itself fell
/// behind its schedule.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(uint64_t start_ns, double rate_per_s)
      : start_ns_(start_ns), period_ns_(1e9 / rate_per_s) {}

  uint64_t DueNs(uint64_t k) const {
    return start_ns_ +
           static_cast<uint64_t>(std::llround(static_cast<double>(k) *
                                              period_ns_));
  }
  /// How late a request sent at `sent_ns` was; 0 when sent on time.
  static uint64_t LatenessNs(uint64_t due_ns, uint64_t sent_ns) {
    return sent_ns > due_ns ? sent_ns - due_ns : 0;
  }
  /// Due-to-done latency; a completion stamped before its due time (clock
  /// reads on two threads) counts as 0.
  static uint64_t LatencyNs(uint64_t due_ns, uint64_t done_ns) {
    return done_ns > due_ns ? done_ns - due_ns : 0;
  }

 private:
  uint64_t start_ns_;
  double period_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
