#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"write_us_p50", "us"},
    {"write_us_p90", "us"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"lang.parse_us", "us"},
    {"lang.parse_mb_s", "MB/s"},
    {"ground.relevant_us", "us"},
    {"ground.us_per_rule", "us"},
    {"ground.rules", "count"},
    {"ground.atoms", "count"},
    {"analysis.condense_us", "us"},
    {"analysis.condense_share", "share"},
    {"analysis.components", "count"},
    {"analysis.max_component_atoms", "count"},
    {"analysis.windows_per_rule_delta", "count"},
    {"analysis.merges", "count"},
    {"analysis.splits", "count"},
    {"analysis.pk_regions", "count"},
    {"analysis.window_us_per_rule_delta", "us"},
    {"solver.first_model_us", "us"},
    {"solver.levels_overhead", "ratio"},
    {"solver.apply_us", "us"},
    {"solver.query_us", "us"},
    {"solver.resolved_per_delta", "count"},
    {"solver.reuse_ratio", "ratio"},
    {"solver.cutoff_ratio", "ratio"},
    {"solver.memo_hit_ratio", "ratio"},
    {"solver.fastpath_ratio", "ratio"},
    {"solver.rules_visited_per_delta", "count"},
    {"solver.warm_hit_ratio", "ratio"},
    {"solver.undone_atoms_per_warm_hit", "count"},
    {"serve.model_us", "us"},
    {"serve.build_us", "us"},
    {"serve.deltas_per_batch", "count"},
    {"serve.pages_cloned_per_publish", "count"},
    {"serve.pages_shared_ratio", "ratio"},
    {"serve.submit_us", "us"},
    {"serve.read_ns", "ns"},
    {"serve.snapshot_now_us", "us"},
    {"serve.reclaimed", "count"},
    {"serve.recycled_pages", "count"},
    {"serve.gen_late_us_p99", "us"},
    {"trace.overhead_ratio", "ratio"},
    {"ledger.unaccounted_share", "share"},
    {"ledger.lang_share", "share"},
    {"ledger.ground_share", "share"},
    {"ledger.analysis_share", "share"},
    {"ledger.solver_share", "share"},
    {"ledger.serve_share", "share"},
};

namespace {

bool Known(const std::string& name) {
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& m : *table) {
      if (name == m.name) return true;
    }
  }
  return false;
}

void PrintPercentiles(const std::string& stem, const std::string& unit,
                      uint64_t n, auto&& at) {
  for (double p : kQuotablePercentiles) {
    if (!Reportable(n, p)) continue;
    char label[16];
    std::snprintf(label, sizeof(label), p < 99.5 ? "p%.0f" : "p%.1f", p);
    std::printf("  %-28s %14.3f %-6s (n=%llu)\n", (stem + "_" + label).c_str(),
                at(p), unit.c_str(), static_cast<unsigned long long>(n));
  }
  if (!Reportable(n, 50.0)) {
    std::printf("  %-28s %14s %-6s (n=%llu, too few samples)\n",
                (stem + "_p50").c_str(), "-", unit.c_str(),
                static_cast<unsigned long long>(n));
  }
}

}  // namespace

void Report::Set(const std::string& name, double value) {
  if (!Known(name)) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

double Report::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::SetFromSlices(const std::vector<SliceMetrics>& slices) {
  auto quiet = [&](double SliceMetrics::*field) {
    std::vector<double> v;
    for (const SliceMetrics& m : slices) v.push_back(m.*field);
    return Percentile(&v, 25);
  };
  Set("write_us_p50", quiet(&SliceMetrics::write_us_p50));
  Set("write_us_p90", quiet(&SliceMetrics::write_us_p90));
  std::printf("  gated values: the quietest quarter of %zu slices\n",
              slices.size());
}

void Report::PrintLatency(const std::string& stem, const std::string& unit,
                          double scale, std::vector<double> ns_samples) {
  const uint64_t n = ns_samples.size();
  PrintPercentiles(stem, unit, n, [&](double p) {
    return Percentile(&ns_samples, p) * scale;
  });
}

void Report::PrintLatency(const std::string& stem, const std::string& unit,
                          double scale, const NsHistogram& hist) {
  PrintPercentiles(stem, unit, hist.count(),
                   [&](double p) { return hist.PercentileNs(p) * scale; });
}

void Report::PrintValue(const std::string& name, double value,
                        const std::string& unit, uint64_t samples) {
  if (samples > 0) {
    std::printf("  %-28s %14.3f %-6s (n=%llu)\n", name.c_str(), value,
                unit.c_str(), static_cast<unsigned long long>(samples));
  } else {
    std::printf("  %-28s %14.3f %s\n", name.c_str(), value, unit.c_str());
  }
}

void Report::PrintLedger(const std::string& workload, const Ledger& ledger,
                         double overhead_ratio) {
  std::printf("ledger %s: %.3f s end to end over %llu ops\n",
              workload.c_str(), static_cast<double>(ledger.root_ns) / 1e9,
              static_cast<unsigned long long>(ledger.root_calls));
  std::printf("  %-10s %12s %8s\n", "layer", "self_ms", "share");
  for (size_t l = 1; l < kLayerCount; ++l) {
    const Layer layer = static_cast<Layer>(l);
    std::printf("  %-10s %12.3f %7.2f%%\n", LayerName(layer),
                static_cast<double>(ledger.SelfNs(layer)) / 1e6,
                100.0 * ledger.Share(layer));
    Set(std::string("ledger.") + LayerName(layer) + "_share",
        ledger.Share(layer));
  }
  std::printf("  %-10s %12.3f %7.2f%%\n", "unaccounted",
              static_cast<double>(ledger.SelfNs(Layer::kBench)) / 1e6,
              100.0 * ledger.UnaccountedShare());
  std::printf("  trace.overhead_ratio %.3f\n", overhead_ratio);
  std::printf("  %-24s %10s %14s\n", "site", "calls", "mean_us");
  for (size_t s = 0; s < kSiteCount; ++s) {
    const Site site = static_cast<Site>(s);
    if (ledger.Calls(site) == 0) continue;
    std::printf("  %-24s %10llu %14.3f\n", SiteName(site),
                static_cast<unsigned long long>(ledger.Calls(site)),
                ledger.MeanUs(site));
  }
  Set("ledger.unaccounted_share", ledger.UnaccountedShare());
  Set("trace.overhead_ratio", overhead_ratio);
}

void Report::PrintJson(bool traced, bool correct, uint64_t attempted,
                       uint64_t failed) const {
  const std::vector<MetricSpec>& specs = traced ? kPerLayer : kEndToEnd;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const MetricSpec& m : specs) {
    double v = Get(m.name);
    if (!std::isfinite(v)) v = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, v, m.unit);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace perfbench
