// Tests of the benchmark's own code: the percentile and sample-count rule,
// slicing a phase, failure accounting, open-loop due-time and lateness
// arithmetic, the span ledger, and seed determinism of the generated
// inputs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "inputs.h"
#include "layer_trace.h"
#include "report.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileRule, TenSamplesBeyond) {
  EXPECT_FALSE(Reportable(19, 50));
  EXPECT_TRUE(Reportable(20, 50));
  EXPECT_FALSE(Reportable(99, 90));
  EXPECT_TRUE(Reportable(100, 90));
  EXPECT_FALSE(Reportable(999, 99));
  EXPECT_TRUE(Reportable(1000, 99));
  EXPECT_TRUE(Reportable(10000, 99.9));
  EXPECT_FALSE(Reportable(0, 50));
}

TEST(PercentileRule, Interpolates) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(&v, 50), 3);
  EXPECT_DOUBLE_EQ(Percentile(&v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(&v, 100), 5);
  EXPECT_DOUBLE_EQ(Percentile(&v, 25), 2);
  std::vector<double> two = {10, 20};
  EXPECT_DOUBLE_EQ(Percentile(&two, 50), 15);
  std::vector<double> none;
  EXPECT_DOUBLE_EQ(Percentile(&none, 50), 0);
  EXPECT_DOUBLE_EQ(Median({7, 1, 3}), 3);
}

TEST(PercentileRule, RangeLeavesTheSamplesInOrder) {
  const std::vector<double> v = {9, 1, 8, 2, 7, 3};
  EXPECT_DOUBLE_EQ(RangePercentile(v, 1, 4, 50), 2);
  EXPECT_DOUBLE_EQ(RangePercentile(v, 0, 6, 100), 9);
  EXPECT_EQ(v, (std::vector<double>{9, 1, 8, 2, 7, 3}));
}

TEST(Slices, CutAtWholeRepeatsOfThePattern) {
  // 10 repeats of a 20-op pattern and a partial one, in 4 slices.
  const auto r = SliceRanges(205, 20, 4);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r.front().first, 0u);
  EXPECT_EQ(r.back().second, 200u);  // the partial repeat is left out
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i].first % 20, 0u);
    EXPECT_EQ(r[i].second % 20, 0u);
    EXPECT_GE(r[i].second - r[i].first, 40u);
    if (i > 0) EXPECT_EQ(r[i].first, r[i - 1].second);
  }
  // Fewer repeats than slices: empty slices are skipped.
  EXPECT_EQ(SliceRanges(60, 20, 8).size(), 3u);
  EXPECT_TRUE(SliceRanges(19, 20, 8).empty());
}

TEST(Slices, GatedValuesComeFromTheQuietestQuarter) {
  // Five of eight slices ran on a machine twice as slow.
  std::vector<SliceMetrics> slices;
  for (double v : {10.0, 20.0, 21.0, 10.2, 19.0, 22.0, 9.9, 20.5}) {
    slices.push_back(SliceMetrics{v, 2 * v});
  }
  Report report;
  report.SetFromSlices(slices);
  EXPECT_DOUBLE_EQ(report.Get("write_us_p50"), 10.15);
  EXPECT_DOUBLE_EQ(report.Get("write_us_p90"), 20.3);
}

TEST(NsHistogramTest, MatchesExactPercentilesOnFineBuckets) {
  NsHistogram h;
  std::vector<double> exact;
  for (uint64_t ns = 100; ns < 1100; ++ns) {
    h.Record(ns);
    exact.push_back(static_cast<double>(ns));
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.PercentileNs(50), Percentile(&exact, 50), 1.0);
  EXPECT_NEAR(h.PercentileNs(99), Percentile(&exact, 99), 1.0);
  NsHistogram other;
  other.Record(50'000);
  h.Merge(other);
  EXPECT_EQ(h.count(), 1001u);
  EXPECT_GE(h.PercentileNs(100), 50'000 - NsHistogram::kCoarseWidth);
}

TEST(NsHistogramTest, BucketsAreMonotone) {
  for (uint64_t ns : {0ull, 1ull, 8191ull, 8192ull, 8255ull, 8256ull,
                      (1ull << 20) - 1, 1ull << 20, 1ull << 30}) {
    const size_t b = NsHistogram::BucketOf(ns);
    EXPECT_LE(NsHistogram::BucketLow(b), ns) << ns;
    if (b + 1 < NsHistogram::kBuckets) {
      EXPECT_GT(NsHistogram::BucketLow(b + 1), ns) << ns;
    }
  }
}

TEST(OpTallyTest, CountsEachOperationOnce) {
  OpTally t;
  t.Record(true);
  t.Record(false);
  t.Record(true);
  EXPECT_EQ(t.attempted(), 3u);
  EXPECT_EQ(t.failed(), 1u);
  t.FailLater(1);  // a deferred check of an already counted op
  EXPECT_EQ(t.attempted(), 3u);
  EXPECT_EQ(t.failed(), 2u);
  OpTally u;
  u.Record(false);
  t.Merge(u);
  EXPECT_EQ(t.attempted(), 4u);
  EXPECT_EQ(t.failed(), 3u);
  t.FailLater(100);  // failures never exceed attempts
  EXPECT_EQ(t.failed(), t.attempted());
}

TEST(OpenLoop, DueTimesFollowTheRateNotCompletions) {
  const OpenLoopSchedule s(1'000'000, 1000.0);  // one request per ms
  EXPECT_EQ(s.DueNs(0), 1'000'000u);
  EXPECT_EQ(s.DueNs(1), 2'000'000u);
  EXPECT_EQ(s.DueNs(2500), 2'501'000'000u);
  const OpenLoopSchedule third(0, 3.0);  // non-integral period
  EXPECT_EQ(third.DueNs(1), 333'333'333u);
  EXPECT_EQ(third.DueNs(3), 1'000'000'000u);
}

TEST(OpenLoop, LatenessAndLatencyCountFromTheDueTime) {
  EXPECT_EQ(OpenLoopSchedule::LatenessNs(100, 100), 0u);
  EXPECT_EQ(OpenLoopSchedule::LatenessNs(100, 90), 0u);
  EXPECT_EQ(OpenLoopSchedule::LatenessNs(100, 175), 75u);
  // A stall delays a request sent late: its latency includes the wait.
  EXPECT_EQ(OpenLoopSchedule::LatencyNs(100, 400), 300u);
  EXPECT_EQ(OpenLoopSchedule::LatencyNs(400, 100), 0u);
}

TEST(LedgerTest, SelfTimeExcludesChildren) {
  Tracer tracer(true);
  {
    Span op(tracer, Site::kOp);
    {
      Span parse(tracer, Site::kParseProgram);
    }
    {
      Span model(tracer, Site::kFirstModel);
      tracer.Carve(Layer::kAnalysis, 0);
    }
  }
  const Ledger l = tracer.Collect();
  EXPECT_EQ(l.Calls(Site::kOp), 1u);
  EXPECT_EQ(l.Calls(Site::kParseProgram), 1u);
  uint64_t layers = 0;
  for (size_t i = 0; i < kLayerCount; ++i) layers += l.self_ns[i];
  EXPECT_EQ(layers, l.root_ns);  // self times partition end to end
  EXPECT_EQ(l.root_ns, l.InclusiveNs(Site::kOp));
  EXPECT_LE(l.InclusiveNs(Site::kParseProgram) +
                l.InclusiveNs(Site::kFirstModel),
            l.root_ns);
}

TEST(LedgerTest, CarveMovesSelfTimeBetweenLayers) {
  Tracer tracer(true);
  {
    Span op(tracer, Site::kOp);
    Span model(tracer, Site::kFirstModel);
    const uint64_t t0 = NowNs();
    while (NowNs() - t0 < 200'000) {
    }
    tracer.Carve(Layer::kAnalysis, 50'000);
  }
  const Ledger l = tracer.Collect();
  EXPECT_EQ(l.SelfNs(Layer::kAnalysis), 50'000u);
  EXPECT_GE(l.SelfNs(Layer::kSolver), 150'000u);
  uint64_t layers = 0;
  for (size_t i = 0; i < kLayerCount; ++i) layers += l.self_ns[i];
  EXPECT_EQ(layers, l.root_ns);
}

TEST(LedgerTest, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  {
    Span op(tracer, Site::kOp);
  }
  EXPECT_EQ(tracer.Collect().root_ns, 0u);
}

std::string ColdDigest(uint64_t seed) {
  std::string all;
  for (const ColdProgram& p : ColdOpenPrograms(seed)) {
    all += p.family + "\n" + p.text;
    for (const std::string& q : p.queries) all += q + "\n";
  }
  return all;
}

std::string GameDigest(const GameProgram& g) {
  std::string all = g.text;
  for (const Edge& e : g.wide_edges) all += MoveFact(e) + "\n";
  for (const Edge& e : g.dense_edges) all += MoveFact(e) + "\n";
  for (const Edge& r : g.cycle_rules) all += CycleClause(r) + "\n";
  return all;
}

std::string StreamDigest(uint64_t seed) {
  DeltaStream s(seed, 1000, 100, 5000);
  std::string all;
  for (int i = 0; i < 2000; ++i) {
    const DeltaStep st = s.Next();
    all += std::to_string(static_cast<int>(st.kind)) + ":" +
           std::to_string(st.target) + ";";
  }
  return all;
}

TEST(SeedDeterminism, SameSeedGivesByteIdenticalInputs) {
  EXPECT_EQ(ColdDigest(7), ColdDigest(7));
  EXPECT_EQ(GameDigest(WideProgram(7)), GameDigest(WideProgram(7)));
  EXPECT_EQ(GameDigest(WideAndDenseProgram(7)),
            GameDigest(WideAndDenseProgram(7)));
  EXPECT_EQ(StreamDigest(7), StreamDigest(7));
}

TEST(SeedDeterminism, DifferentSeedsDiffer) {
  EXPECT_NE(ColdDigest(7), ColdDigest(8));
  EXPECT_NE(GameDigest(WideProgram(7)), GameDigest(WideProgram(8)));
  EXPECT_NE(StreamDigest(7), StreamDigest(8));
}

TEST(Inputs, ShapesMatchTheWorkloadDefinitions) {
  const std::vector<ColdProgram> cold = ColdOpenPrograms(3);
  EXPECT_EQ(cold.size(), 40u);
  for (const ColdProgram& p : cold) EXPECT_EQ(p.queries.size(), 8u);

  const GameProgram wide = WideProgram(3);
  EXPECT_EQ(wide.text.find("win(X) :- move(X, Y), not win(Y)."), 0u);
  EXPECT_EQ(wide.text.find("win(X)", 1), std::string::npos);  // one rule
  EXPECT_GT(wide.wide_edges.size(), 15000u);
  EXPECT_EQ(wide.cycle_rules.size(), 4096u);
  for (const Edge& r : wide.cycle_rules) EXPECT_NE(r.src, r.dst);

  const GameProgram dense = WideAndDenseProgram(3);
  EXPECT_GT(dense.dense_edges.size(), 5000u);
  for (const Edge& e : dense.dense_edges) {
    EXPECT_EQ(e.src[0], 'd');
    EXPECT_EQ(e.dst[0], 'd');
  }
}

TEST(Inputs, DeltaStreamMixIsExact) {
  int facts = 0, asserts = 0, retracts = 0, queries = 0;
  for (uint64_t k = 0; k < 10 * DeltaStream::kPeriod; ++k) {
    switch (DeltaStream::KindAt(k)) {
      case DeltaKind::kFactToggle:
        ++facts;
        break;
      case DeltaKind::kRuleAssert:
        ++asserts;
        break;
      case DeltaKind::kRuleRetract:
        ++retracts;
        break;
      case DeltaKind::kQuery:
        ++queries;
        break;
    }
  }
  EXPECT_EQ(facts, 120);
  EXPECT_EQ(asserts, 10);
  EXPECT_EQ(retracts, 10);
  EXPECT_EQ(queries, 60);
  // Every retract closes the clause its preceding assert opened.
  DeltaStream s(5, 100, 1000, 100);
  uint64_t open = ~0ull;
  for (int i = 0; i < 400; ++i) {
    const DeltaStep st = s.Next();
    if (st.kind == DeltaKind::kRuleAssert) open = st.target;
    if (st.kind == DeltaKind::kRuleRetract) {
      EXPECT_EQ(st.target, open);
    }
  }
}

}  // namespace
}  // namespace perfbench
