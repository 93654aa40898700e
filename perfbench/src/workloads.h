#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "report.h"
#include "stats.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: an untraced phase, then a traced phase of the same
  /// length on the same set-up, so the overhead ratio compares like with
  /// like; the per-layer metrics come from the traced phase.
  bool trace = false;
};

/// What a workload hands back besides the metrics it set on the report:
/// its operation tally, failures from every deferred check included. A
/// set-up that could not open records one failed operation.
struct RunOutcome {
  OpTally tally;
};

/// Set-up repetitions per run; `setup_s` is their median.
inline constexpr int kSetupRepeats = 3;

RunOutcome RunColdOpen(const RunConfig& cfg, Report* report);
RunOutcome RunDeltaStream(const RunConfig& cfg, Report* report);
RunOutcome RunServeMixed(const RunConfig& cfg, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
