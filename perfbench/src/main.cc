// perfbench: the end-to-end benchmark of the Session request path.
//
//   perfbench --workload cold_open|delta_stream|serve_mixed --seed N
//             --seconds S --trace 0|1
//
// Prints the workload's own metrics with sample counts, the per-layer
// ledger when traced, and as its last line one JSON object with the
// contract metrics (end-to-end untraced, per-layer traced), whose
// `correct` says whether every answer checked out.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold_open|delta_stream|"
               "serve_mixed --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !(cfg.seconds > 0)) return Usage();

  perfbench::Report report;
  perfbench::RunOutcome out;
  if (workload == "cold_open") {
    out = perfbench::RunColdOpen(cfg, &report);
  } else if (workload == "delta_stream") {
    out = perfbench::RunDeltaStream(cfg, &report);
  } else if (workload == "serve_mixed") {
    out = perfbench::RunServeMixed(cfg, &report);
  } else {
    return Usage();
  }
  const bool correct = out.tally.failed() == 0;
  std::printf("  %-28s %14.3f MB\n", "peak_rss_mb", report.Get("peak_rss_mb"));
  std::printf("  %-28s %14.3f s (median of %d)\n", "setup_s",
              report.Get("setup_s"), perfbench::kSetupRepeats);
  std::printf("  ops: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.tally.attempted()),
              static_cast<unsigned long long>(out.tally.failed()));
  report.PrintJson(cfg.trace, correct, out.tally.attempted(),
                   out.tally.failed());
  return 0;
}
