#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// What one run reports: the contract metrics that go into the final JSON
// line (end-to-end without tracing, per-layer with it), a human-readable
// table of the workload's own latency metrics with sample counts, and the
// per-layer ledger. Metric names live in one table here so the JSON and
// BENCHMARK.json cannot drift apart silently (run.py compares them).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layer_trace.h"
#include "stats.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload (see README.md for
/// what each means on each workload).
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics, reported by every traced run; 0 where a layer does
/// no such work on the workload.
extern const std::vector<MetricSpec> kPerLayer;

/// The gated end-to-end values of one slice of a measured phase, in the
/// units of their metrics. A measured phase is cut into slices, and each
/// gated value is read from its quietest quarter of slices, the 25th
/// percentile of the per-slice values. A slowdown of the machine (CPUs
/// taken by the host, a slow CPU a thread landed on) that covers fewer
/// than three quarters of a run's slices does not move it; a change to
/// the program moves every slice.
struct SliceMetrics {
  double write_us_p50 = 0;
  double write_us_p90 = 0;
};

class Report {
 public:
  /// Sets a contract metric (must be named in kEndToEnd or kPerLayer).
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;
  /// Sets the gated metrics `SliceMetrics` holds from their quietest
  /// quarter of `slices`, and prints how many slices there were.
  void SetFromSlices(const std::vector<SliceMetrics>& slices);

  /// Prints a latency set under the workload's own metric names: p50 and
  /// every higher quotable percentile with ten samples beyond it, plus the
  /// sample count. `scale` converts nanoseconds to `unit`.
  void PrintLatency(const std::string& stem, const std::string& unit,
                    double scale, std::vector<double> ns_samples);
  void PrintLatency(const std::string& stem, const std::string& unit,
                    double scale, const NsHistogram& hist);
  void PrintValue(const std::string& name, double value,
                  const std::string& unit, uint64_t samples = 0);

  /// The per-layer ledger: self time and share of end-to-end per layer.
  void PrintLedger(const std::string& workload, const Ledger& ledger,
                   double overhead_ratio);

  /// Prints the contract JSON line (last line of stdout).
  void PrintJson(bool traced, bool correct, uint64_t attempted,
                 uint64_t failed) const;

 private:
  std::map<std::string, double> values_;
};

/// Peak resident set of this process in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
