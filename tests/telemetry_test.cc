// The observability layer (src/obs/): histogram percentile edge cases,
// lock-free counter exactness under the work-stealing pool, trace-JSON
// well-formedness, and — the property the whole registry design leans on —
// telemetry invariance of the incremental solver across thread counts.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "ground/grounder.h"
#include "lang/parser.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "solver/incremental.h"
#include "solver/solver.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;
using testing::MustGround;

// ---------------------------------------------------------------------------
// Histograms

TEST(HistogramTest, EmptyPercentilesAreZero) {
  obs::LocalHistogram h;
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p90(), 0u);
  EXPECT_EQ(h.p99(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleSampleIsExactAtEveryPercentile) {
  for (uint64_t v : {0ull, 1ull, 7ull, 1000ull, 123456789ull}) {
    obs::LocalHistogram h;
    h.Record(v);
    EXPECT_EQ(h.p50(), v) << v;
    EXPECT_EQ(h.p90(), v) << v;
    EXPECT_EQ(h.p99(), v) << v;
    EXPECT_EQ(h.min, v);
    EXPECT_EQ(h.max, v);
  }
}

TEST(HistogramTest, ConstantStreamIsExact) {
  obs::LocalHistogram h;
  for (int i = 0; i < 1000; ++i) h.Record(42);
  // All samples share a bucket whose clamped upper bound is [min, max].
  EXPECT_EQ(h.p50(), 42u);
  EXPECT_EQ(h.p99(), 42u);
  EXPECT_EQ(h.mean(), 42.0);
}

TEST(HistogramTest, BucketBoundariesAtPowersOfTwo) {
  // 2^k and 2^k - 1 must land in different buckets (bit_width bucketing):
  // a stream of the two values keeps them distinguishable at the ends.
  obs::LocalHistogram h;
  h.Record(127);  // bucket upper 127
  h.Record(128);  // bucket upper 255
  EXPECT_EQ(h.p50(), 127u);
  // Rank-2 percentiles resolve to the second bucket, clamped to max.
  EXPECT_EQ(h.p99(), 128u);
  EXPECT_EQ(h.min, 127u);
  EXPECT_EQ(h.max, 128u);
}

TEST(HistogramTest, PercentilesAreMonotoneAndClamped) {
  obs::LocalHistogram h;
  Rng rng(7);
  uint64_t lo = UINT64_MAX, hi = 0;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.Uniform(1u << 20);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    h.Record(v);
  }
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_GE(h.p50(), lo);
  EXPECT_LE(h.p99(), hi);
}

TEST(HistogramTest, LocalMergeEqualsCombinedRecording) {
  obs::LocalHistogram a, b, all;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    uint64_t v = rng.Uniform(1 << 12);
    ((i % 2 == 0) ? a : b).Record(v);
    all.Record(v);
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.count, all.count);
  EXPECT_EQ(a.sum, all.sum);
  EXPECT_EQ(a.min, all.min);
  EXPECT_EQ(a.max, all.max);
  EXPECT_EQ(a.p50(), all.p50());
  EXPECT_EQ(a.p99(), all.p99());
}

TEST(HistogramTest, AtomicSnapshotMatchesLocalTwin) {
  obs::Histogram atomic;
  obs::LocalHistogram local;
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    uint64_t v = rng.Uniform(1 << 16);
    atomic.Record(v);
    local.Record(v);
  }
  obs::LocalHistogram snap = atomic.Snapshot();
  EXPECT_EQ(snap.count, local.count);
  EXPECT_EQ(snap.sum, local.sum);
  EXPECT_EQ(snap.p50(), local.p50());
  EXPECT_EQ(snap.p99(), local.p99());
}

// ---------------------------------------------------------------------------
// Registry under concurrency

TEST(MetricsRegistryTest, InternedPointersAreStable) {
  obs::MetricsRegistry m;
  obs::Counter* c = m.GetCounter("x");
  EXPECT_EQ(c, m.GetCounter("x"));
  EXPECT_NE(static_cast<void*>(c), static_cast<void*>(m.GetGauge("x")));
}

TEST(MetricsRegistryTest, CountersAreExactUnderThePool) {
  // Every worker hammers the same counter and histogram; at the Run
  // barrier the totals must be exact (and the test body TSan-clean).
  obs::MetricsRegistry m;
  obs::Counter* c = m.GetCounter("pool.increments");
  obs::Histogram* h = m.GetHistogram("pool.values");
  constexpr uint32_t kTasks = 64;
  constexpr int kPerTask = 1000;
  WorkStealingPool pool(4);
  std::vector<uint32_t> seeds(kTasks);
  std::iota(seeds.begin(), seeds.end(), 0u);
  pool.Run(seeds, [&](unsigned, uint32_t task) {
    for (int i = 0; i < kPerTask; ++i) {
      c->Add(1);
      h->Record(task);
    }
  });
  EXPECT_EQ(c->value(), uint64_t{kTasks} * kPerTask);
  obs::LocalHistogram snap = h->Snapshot();
  EXPECT_EQ(snap.count, uint64_t{kTasks} * kPerTask);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, kTasks - 1);
}

TEST(MetricsRegistryTest, JsonExportHasAllSections) {
  obs::MetricsRegistry m;
  m.GetCounter("a.count")->Add(3);
  m.GetGauge("b.gauge")->Set(-5);
  m.GetHistogram("c.hist")->Record(9);
  std::ostringstream os;
  m.WriteJson(os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"c.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace JSON well-formedness

/// Minimal JSON well-formedness checker (objects, arrays, strings with
/// escapes, numbers, literals) — enough to certify the Chrome trace
/// exporter's output parses, without a JSON dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool Valid() {
    i_ = 0;
    return Value() && (SkipWs(), i_ == s_.size());
  }

 private:
  void SkipWs() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool Literal(const char* lit) {
    size_t n = std::string(lit).size();
    if (s_.compare(i_, n, lit) != 0) return false;
    i_ += n;
    return true;
  }
  bool String() {
    if (s_[i_] != '"') return false;
    for (++i_; i_ < s_.size(); ++i_) {
      if (s_[i_] == '\\') {
        ++i_;
      } else if (s_[i_] == '"') {
        ++i_;
        return true;
      }
    }
    return false;
  }
  bool Number() {
    size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }
  bool Value() {
    SkipWs();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return Members();
      case '[': return Elements();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Members() {
    ++i_;  // '{'
    SkipWs();
    if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      if (!Value()) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != '}') return false;
    ++i_;
    return true;
  }
  bool Elements() {
    ++i_;  // '['
    SkipWs();
    if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != ']') return false;
    ++i_;
    return true;
  }

  const std::string& s_;
  size_t i_ = 0;
};

TEST(JsonCheckerTest, SelfCheck) {
  EXPECT_TRUE(JsonChecker(R"({"a":[1,2.5,{"b":"c\"d"}],"e":null})").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1)").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1}x)").Valid());
  EXPECT_FALSE(JsonChecker(R"([1,])").Valid());
}

TEST(TraceTest, ChromeTraceIsWellFormedJson) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Enable(/*ring_capacity=*/64);
  // Wrap the ring first to cover the oldest-first re-ordering path; the
  // spans recorded after it are the newest events and survive the wrap.
  for (int i = 0; i < 200; ++i) GSLS_TRACE_INSTANT("test.wrap", i);
  {
    GSLS_TRACE_SPAN("test.outer", 1);
    GSLS_TRACE_SPAN("test.inner", 2);
    GSLS_TRACE_INSTANT("test.mark", 3);
  }
  rec.Disable();
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_GT(rec.dropped_count(), 0u);  // the wrap loop overflowed the ring
  rec.Clear();
}

TEST(TraceTest, DisabledRecorderBuffersNothing) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  ASSERT_FALSE(rec.enabled());
  size_t before = rec.event_count();
  {
    GSLS_TRACE_SPAN("test.disabled", 0);
    GSLS_TRACE_INSTANT("test.disabled", 0);
  }
  EXPECT_EQ(rec.event_count(), before);
}

// The front half shows in a recorded trace: the parse layer as well as the
// grounding after it.
TEST(TraceTest, TraceShowsParseAndGroundLayers) {
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  rec.Enable();
  TermStore store;
  Result<Program> program = ParseProgram(store, workload::GameChain(8));
  ASSERT_TRUE(program.ok());
  ASSERT_TRUE(GroundRelevant(*program, {}).ok());
  rec.Disable();
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"lang.parse\""), std::string::npos);
  EXPECT_NE(json.find("\"ground.relevant\""), std::string::npos);
  rec.Clear();
}

// ---------------------------------------------------------------------------
// Telemetry invariance of the incremental solver across thread counts

/// Runs the same churn stream at `threads`, returns the solver's telemetry
/// plus a model digest via out-params.
struct ChurnResult {
  SolverDiagnostics diag;
  IncrementalStats stats;
  obs::LocalHistogram resolved_components;
  obs::LocalHistogram resolved_atoms;
  uint64_t delta_count = 0;
  Interpretation model;
};

ChurnResult RunChurn(const std::string& src, unsigned threads) {
  Fixture f(src);
  obs::Telemetry telemetry;
  SolverOptions sopts;
  sopts.num_threads = threads;
  sopts.telemetry = &telemetry;
  IncrementalSolver inc(MustGround(f.program), sopts);
  inc.Model();

  std::vector<AtomId> facts;
  for (AtomId a = 0; a < inc.program().atom_count(); ++a) {
    if (inc.program().FindUnitRule(a).has_value()) facts.push_back(a);
  }
  EXPECT_FALSE(facts.empty());

  Rng rng(0x7E1Eu);
  for (int d = 0; d < 40; ++d) {
    // Multi-fact batches engage the parallel cone when threaded.
    for (int b = 0; b < 3; ++b) {
      AtomId a = facts[rng.Uniform(facts.size())];
      if (inc.HasFact(a)) {
        inc.RetractAtom(a);
      } else {
        inc.AssertAtom(a);
      }
    }
    inc.Model();
  }

  ChurnResult out;
  out.diag = inc.diagnostics();
  out.stats = inc.stats();
  obs::MetricsRegistry& m = telemetry.metrics;
  out.resolved_components =
      m.GetHistogram("incremental.delta.resolved_components")->Snapshot();
  out.resolved_atoms =
      m.GetHistogram("incremental.delta.resolved_atoms")->Snapshot();
  out.delta_count = m.GetHistogram("incremental.delta.latency_us")->count();
  out.model = inc.Model().model;
  return out;
}

TEST(TelemetryInvarianceTest, ChurnTelemetryIsThreadCountInvariant) {
  const std::string src = workload::GameGrid(12, 12);
  ChurnResult base = RunChurn(src, 1);
  ASSERT_EQ(base.delta_count, 40u);
  for (unsigned threads : {2u, 4u}) {
    ChurnResult got = RunChurn(src, threads);
    EXPECT_EQ(got.model, base.model) << "threads=" << threads;
    // The change-pruned re-solve set is schedule-independent: the heap
    // and the parallel cone re-solve exactly the components whose inputs
    // moved, so the per-delta histograms agree sample-for-sample.
    EXPECT_EQ(got.resolved_components.count, base.resolved_components.count);
    EXPECT_EQ(got.resolved_components.sum, base.resolved_components.sum);
    EXPECT_EQ(got.resolved_atoms.sum, base.resolved_atoms.sum);
    EXPECT_EQ(got.delta_count, base.delta_count);
    EXPECT_EQ(got.stats.components_resolved, base.stats.components_resolved);
    EXPECT_EQ(got.stats.cone_cutoffs, base.stats.cone_cutoffs);
    // Pipeline diagnostics merged at the barrier equal a sequential run's.
    EXPECT_EQ(got.diag.rules_visited, base.diag.rules_visited);
    EXPECT_EQ(got.diag.unfounded_floods, base.diag.unfounded_floods);
    EXPECT_EQ(got.diag.unfounded_falsified, base.diag.unfounded_falsified);
    EXPECT_EQ(got.diag.alternating_rounds, base.diag.alternating_rounds);
    EXPECT_EQ(got.diag.flood_sizes.count, base.diag.flood_sizes.count);
    EXPECT_EQ(got.diag.flood_sizes.sum, base.diag.flood_sizes.sum);
  }
}

TEST(TelemetryTest, DumpTelemetryMentionsEveryLayer) {
  Fixture f(workload::GameChain(64));
  obs::Telemetry telemetry;
  SolverOptions sopts;
  sopts.telemetry = &telemetry;
  IncrementalSolver inc(MustGround(f.program), sopts);
  inc.Model();
  inc.AssertRule(GroundRule{0, {1}, {}});  // force a condensation repair
  inc.Model();
  std::ostringstream os;
  inc.DumpTelemetry(os);
  std::string dump = os.str();
  EXPECT_NE(dump.find("incremental:"), std::string::npos);
  EXPECT_NE(dump.find("diagnostics:"), std::string::npos);
  EXPECT_NE(dump.find("condensation:"), std::string::npos);
  EXPECT_NE(dump.find("incremental.delta.latency_us"), std::string::npos);
  EXPECT_NE(dump.find("solver.diag.components"), std::string::npos);
}

TEST(TelemetryTest, SolveWfsPublishesDiagnostics) {
  Fixture f(workload::GameChain(32));
  GroundProgram gp = MustGround(f.program);
  obs::Telemetry telemetry;
  SolverOptions sopts;
  sopts.telemetry = &telemetry;
  SolverDiagnostics diag;
  SolveWfs(gp, sopts, &diag);
  EXPECT_EQ(static_cast<uint64_t>(
                telemetry.metrics.GetGauge("solver.diag.rules_visited")
                    ->value()),
            diag.rules_visited);
  EXPECT_GT(telemetry.metrics.GetGauge("solver.diag.components")->value(), 0);
}

}  // namespace
}  // namespace gsls
