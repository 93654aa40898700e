// Unit coverage for the cooperative-cancellation layer (util/cancel.h),
// its plumbing through `SolveWfs` / `IncrementalSolver` / the engines,
// and the invariant auditor on healthy solvers. The exhaustive
// abort-at-every-checkpoint drill lives in tests/fault_test.cc.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.h"
#include "core/engine.h"
#include "core/tabled.h"
#include "obs/metrics.h"
#include "solver/incremental.h"
#include "solver/solver.h"
#include "test_support.h"
#include "util/cancel.h"
#include "util/strings.h"
#include "wfs/wfs.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;
using testing::MustGround;

constexpr char kProgram[] = R"(
  a.  b :- a.  c :- b, not d.  d :- not c.
  p :- q.  q :- p.  p :- a.
  w1 :- not w2.  w2 :- not w1.
  e :- c, not p.  f :- e.  f :- w1.
)";

TEST(CancelTokenTest, LatchesUntilReset) {
  CancelToken token;
  EXPECT_FALSE(token.IsCancelled());
  token.Cancel();
  EXPECT_TRUE(token.IsCancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.IsCancelled());
  token.Reset();
  EXPECT_FALSE(token.IsCancelled());
}

TEST(CancelCtxTest, InactiveWithoutAnyStopCondition) {
  CancelCtx ctx(nullptr, 0, 0, nullptr);
  EXPECT_FALSE(ctx.active());
  CancelToken token;
  EXPECT_TRUE(CancelCtx(&token, 0, 0, nullptr).active());
  EXPECT_TRUE(CancelCtx(nullptr, 1, 0, nullptr).active());
  EXPECT_TRUE(CancelCtx(nullptr, 0, 1, nullptr).active());
  FaultInjector fault;
  EXPECT_TRUE(CancelCtx(nullptr, 0, 0, &fault).active());
}

TEST(CancelCtxTest, TokenLatchesCancelledOutcome) {
  CancelToken token;
  CancelCtx ctx(&token, 0, 0, nullptr);
  ctx.BeginPass();
  EXPECT_FALSE(ctx.Checkpoint());
  EXPECT_EQ(ctx.outcome(), SolveOutcome::kCompleted);
  token.Cancel();
  EXPECT_TRUE(ctx.Checkpoint());
  EXPECT_TRUE(ctx.aborted());
  EXPECT_EQ(ctx.outcome(), SolveOutcome::kCancelled);
  // Latched: later checkpoints short-circuit without re-deciding.
  token.Reset();
  EXPECT_TRUE(ctx.Checkpoint());
  // A new pass re-arms; the reset token no longer stops it.
  ctx.BeginPass();
  EXPECT_FALSE(ctx.Checkpoint());
  EXPECT_EQ(ctx.outcome(), SolveOutcome::kCompleted);
}

TEST(CancelCtxTest, StepBudgetLatchesDeadlineOutcome) {
  CancelCtx ctx(nullptr, 0, /*step_budget=*/3, nullptr);
  ctx.BeginPass();
  EXPECT_FALSE(ctx.Checkpoint());
  EXPECT_FALSE(ctx.Checkpoint());
  EXPECT_FALSE(ctx.Checkpoint());
  EXPECT_TRUE(ctx.Checkpoint());  // 4th > budget
  EXPECT_EQ(ctx.outcome(), SolveOutcome::kDeadlineExceeded);
}

TEST(CancelCtxTest, ExpiredDeadlineLatchesAtFirstCheckpoint) {
  CancelCtx ctx(nullptr, /*deadline_ns=*/1, 0, nullptr);  // epoch-old
  ctx.BeginPass();
  EXPECT_TRUE(ctx.Checkpoint());
  EXPECT_EQ(ctx.outcome(), SolveOutcome::kDeadlineExceeded);
}

TEST(CancelCtxTest, FaultTripFiresThroughAttachedToken) {
  CancelToken token;
  FaultInjector fault;
  CancelCtx ctx(&token, 0, 0, &fault);
  fault.Arm(2);
  ctx.BeginPass();
  EXPECT_FALSE(ctx.Checkpoint());
  EXPECT_TRUE(ctx.Checkpoint());
  EXPECT_TRUE(fault.tripped());
  EXPECT_EQ(ctx.outcome(), SolveOutcome::kCancelled);
  EXPECT_TRUE(token.IsCancelled()) << "a trip must persist like a Cancel";
  EXPECT_EQ(fault.checkpoints(), 2u);
}

TEST(StridedCheckpointTest, NullCtxIsFree) {
  StridedCheckpoint tick(nullptr);
  for (int i = 0; i < 3 * static_cast<int>(kCancelStride); ++i) {
    EXPECT_FALSE(tick.Tick());
  }
}

TEST(StridedCheckpointTest, PollsOncePerStride) {
  CancelCtx ctx(nullptr, 0, /*step_budget=*/1, nullptr);
  ctx.BeginPass();
  StridedCheckpoint tick(&ctx);
  uint64_t ticks = 0;
  while (!tick.Tick()) {
    ++ticks;
    ASSERT_LT(ticks, 10u * kCancelStride);
  }
  // Budget 1: the first full poll passes, the second aborts — exactly two
  // strides of local countdowns in between.
  EXPECT_EQ(ticks, 2u * kCancelStride - 1);
}

TEST(SolveWfsTest, PreCancelledTokenAbortsBeforeAnyComponent) {
  Fixture f(kProgram);
  GroundProgram gp = MustGround(f.program);
  CancelToken token;
  token.Cancel();
  SolverOptions opts;
  opts.cancel = &token;
  WfsModel aborted = SolveWfs(gp, opts, nullptr);
  EXPECT_EQ(aborted.outcome, SolveOutcome::kCancelled);
  for (AtomId a = 0; a < gp.atom_count(); ++a) {
    EXPECT_EQ(aborted.model.Value(a), TruthValue::kUndefined)
        << "abort invariant: no component may be half-solved";
  }
  token.Reset();
  WfsModel done = SolveWfs(gp, opts, nullptr);
  EXPECT_EQ(done.outcome, SolveOutcome::kCompleted);
  EXPECT_EQ(done.model, SolveWfs(gp, nullptr).model);
}

// The deadline benchmark's program shape: a 1.5M-atom chain
// win_i :- not win_{i+1}, welded into one SCC by a dead back-edge rule. A
// deadline already past aborts at the first checkpoint, after the
// uncancellable condensation build, and leaves every atom undefined.
TEST(SolveWfsTest, PreExpiredDeadlineLeavesDeepChainUntouched) {
  constexpr int kChain = 1'500'000;
  TermStore store;
  GroundProgram gp(&store);
  // win_i is win(h<i / 1000>, l<i % 1000>): 2.5k interned names, not
  // 1.5M, keep construction cheap.
  std::vector<const Term*> high, low;
  for (int k = 0; k <= kChain / 1000; ++k) {
    high.push_back(store.MakeConstant(StrCat("h", k)));
  }
  for (int k = 0; k < 1000; ++k) {
    low.push_back(store.MakeConstant(StrCat("l", k)));
  }
  std::vector<AtomId> win(kChain + 1);
  for (int i = 0; i <= kChain; ++i) {
    win[i] = gp.InternAtom(
        store.MakeApp("win", {high[i / 1000], low[i % 1000]}));
  }
  const AtomId unreachable = gp.InternAtom(store.MakeConstant("unreachable"));
  for (int i = 0; i < kChain; ++i) gp.AddRule({win[i], {}, {win[i + 1]}});
  gp.AddRule({win[kChain], {win[0], unreachable}, {}});

  SolverOptions opts;
  opts.deadline_ns = 1;  // long past on the steady clock
  WfsModel aborted = SolveWfs(gp, opts);
  EXPECT_EQ(aborted.outcome, SolveOutcome::kDeadlineExceeded);
  ASSERT_EQ(aborted.model.atom_count(), gp.atom_count());
  for (AtomId a = 0; a < gp.atom_count(); ++a) {
    ASSERT_EQ(aborted.model.Value(a), TruthValue::kUndefined) << "atom " << a;
  }
}

TEST(SolveWfsTest, PreCancelledTokenAbortsParallelSolve) {
  Fixture f(kProgram);
  GroundProgram gp = MustGround(f.program);
  CancelToken token;
  token.Cancel();
  SolverOptions opts;
  opts.cancel = &token;
  opts.num_threads = 4;
  WfsModel aborted = SolveWfs(gp, opts, nullptr);
  EXPECT_EQ(aborted.outcome, SolveOutcome::kCancelled);
  token.Reset();
  EXPECT_EQ(SolveWfs(gp, opts, nullptr).model, SolveWfs(gp, nullptr).model);
}

TEST(IncrementalCancelTest, AbortedPassResumesExactly) {
  Fixture f(kProgram);
  CancelToken token;
  SolverOptions opts;
  opts.compute_levels = true;
  opts.cancel = &token;
  IncrementalSolver inc(MustGround(f.program), opts);
  token.Cancel();
  EXPECT_EQ(inc.Model().outcome, SolveOutcome::kCancelled);
  EXPECT_EQ(inc.stats().aborted_passes, 1u);
  check::AuditReport mid = check::AuditSolver(inc);
  EXPECT_TRUE(mid.ok()) << mid.ToString();
  token.Reset();
  const WfsModel& resumed = inc.Model();
  EXPECT_EQ(resumed.outcome, SolveOutcome::kCompleted);
  EXPECT_EQ(inc.stats().resumed_passes, 1u);
  WfsModel fresh = inc.SolveFresh();
  EXPECT_EQ(resumed.model, fresh.model);
  EXPECT_EQ(resumed.true_stage, fresh.true_stage);
  EXPECT_EQ(resumed.false_stage, fresh.false_stage);
  check::AuditReport report = check::AuditSolver(inc);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.graph_audited);
  EXPECT_GT(report.components_checked, 0u);
}

TEST(IncrementalCancelTest, StepBudgetGovernsNextPassOnly) {
  Fixture f(kProgram);
  SolverOptions opts;
  opts.compute_levels = true;
  IncrementalSolver inc(MustGround(f.program), opts);
  inc.SetStepBudget(1);
  EXPECT_EQ(inc.Model().outcome, SolveOutcome::kDeadlineExceeded);
  inc.SetStepBudget(0);
  EXPECT_EQ(inc.Model().outcome, SolveOutcome::kCompleted);
  EXPECT_EQ(inc.Model().model, inc.SolveFresh().model);
}

TEST(IncrementalCancelTest, QueryAtomReportsOutcomeAndResumes) {
  Fixture f(kProgram);
  CancelToken token;
  SolverOptions opts;
  opts.compute_levels = true;
  opts.cancel = &token;
  IncrementalSolver inc(MustGround(f.program), opts);
  const Term* fa = MustParseTerm(f.store, "f");
  IncrementalSolver::QueryAnswer warm = inc.QueryAtom(fa);
  EXPECT_EQ(warm.outcome, SolveOutcome::kCompleted);
  // All-valid fast path under a cancelled token: zero work, exact answer,
  // still `kCompleted` — cancellation stops work, not lookups.
  token.Cancel();
  IncrementalSolver::QueryAnswer fast = inc.QueryAtom(fa);
  EXPECT_EQ(fast.outcome, SolveOutcome::kCompleted);
  EXPECT_EQ(fast.value, warm.value);
  // A delta makes the cone stale; the cancelled token now aborts the walk.
  inc.Retract(MustParseTerm(f.store, "a"));
  IncrementalSolver::QueryAnswer aborted = inc.QueryAtom(fa);
  EXPECT_EQ(aborted.outcome, SolveOutcome::kCancelled);
  token.Reset();
  IncrementalSolver::QueryAnswer resumed = inc.QueryAtom(fa);
  EXPECT_EQ(resumed.outcome, SolveOutcome::kCompleted);
  EXPECT_EQ(resumed.value, inc.ValueOf(fa));
}

TEST(IncrementalCancelTest, CancelTelemetryChannels) {
  Fixture f(kProgram);
  obs::Telemetry telemetry;
  CancelToken token;
  SolverOptions opts;
  opts.cancel = &token;
  opts.telemetry = &telemetry;
  IncrementalSolver inc(MustGround(f.program), opts);
  token.Cancel();
  inc.Model();
  token.Reset();
  inc.Model();
  EXPECT_EQ(telemetry.metrics.GetCounter("cancel.aborts")->value(), 1u);
  EXPECT_EQ(telemetry.metrics.GetCounter("cancel.resumes")->value(), 1u);
  EXPECT_EQ(
      telemetry.metrics.GetCounter("cancel.deadline_exceeded")->value(), 0u);
}

TEST(TabledEngineCancelTest, CancelAndResumeThroughTheCallersToken) {
  Fixture f(kProgram);
  CancelToken token;
  TabledOptions opts;
  opts.solver.cancel = &token;
  Result<TabledEngine> engine = TabledEngine::Create(f.program, opts);
  ASSERT_TRUE(engine.ok());
  TabledEngine& e = engine.value();
  IncrementalSolver& solver = e.session().solver();
  EXPECT_EQ(solver.Model().outcome, SolveOutcome::kCompleted);
  TruthValue before = e.ValueOf(MustParseTerm(f.store, "b"));
  // Cancel, then dirty the model so the next pass has work to abort.
  token.Cancel();
  e.session().Assert(MustParseTerm(f.store, "d"));
  EXPECT_EQ(solver.Model().outcome, SolveOutcome::kCancelled);
  token.Reset();
  EXPECT_EQ(solver.Model().outcome, SolveOutcome::kCompleted);
  EXPECT_EQ(e.ValueOf(MustParseTerm(f.store, "b")), before);
  check::AuditReport report = check::AuditSolver(e.solver());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(TabledEngineCancelTest, SessionDeadlineSetterHonoured) {
  Fixture f(kProgram);
  Result<TabledEngine> engine = TabledEngine::Create(f.program);
  ASSERT_TRUE(engine.ok());
  TabledEngine& e = engine.value();
  e.session().SetDeadlineNs(1);  // long expired
  e.session().Assert(MustParseTerm(f.store, "zz"));
  EXPECT_EQ(e.session().solver().Model().outcome,
            SolveOutcome::kDeadlineExceeded);
  e.session().SetDeadlineNs(0);
  EXPECT_EQ(e.session().solver().Model().outcome, SolveOutcome::kCompleted);
}

// Engine construction stops on the same conditions as `Session::Open`:
// an expired deadline or a spent step budget ends the grounding, and no
// engine (or oracle) is built from a partial program.
TEST(TabledEngineCancelTest, ConstructionHonoursDeadlineAndStepBudget) {
  Fixture f(workload::GameChain(2000));
  const Goal query = MustParseQuery(f.store, "win(n1)");
  for (const bool by_budget : {false, true}) {
    TabledOptions opts;
    (by_budget ? opts.solver.step_budget : opts.solver.deadline_ns) = 1;
    Result<TabledEngine> created = TabledEngine::Create(f.program, opts);
    ASSERT_FALSE(created.ok()) << "by_budget " << by_budget;
    EXPECT_EQ(created.status().code(), StatusCode::kDeadlineExceeded);
    Result<TabledEngine> for_query =
        TabledEngine::CreateForQuery(f.program, query, opts);
    ASSERT_FALSE(for_query.ok()) << "by_budget " << by_budget;
    EXPECT_EQ(for_query.status().code(), StatusCode::kDeadlineExceeded);
  }
  CancelToken token;
  token.Cancel();
  TabledOptions opts;
  opts.solver.cancel = &token;
  Result<TabledEngine> created = TabledEngine::Create(f.program, opts);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kCancelled);
  token.Reset();
  EXPECT_TRUE(TabledEngine::Create(f.program, opts).ok());
}

TEST(GlobalSlsEngineCancelTest, CancelledOracleReportsUnknownNeverWrong) {
  Fixture f(kProgram);
  const Term* b = MustParseTerm(f.store, "b");
  // The oracle's facade: a cancelled down-cone pass answers kUnknown,
  // never the pre-abort tape value.
  CancelToken token;
  SessionOptions opts;
  opts.solver.cancel = &token;
  Result<Session> session = Session::Open(f.program, opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  token.Cancel();
  EXPECT_EQ(session.value().Query(b).status, GoalStatus::kUnknown);
  token.Reset();
  EXPECT_EQ(session.value().Query(b).status, GoalStatus::kSuccessful);

  // The engine, cancelled through the caller's token: the oracle's open
  // stops, nothing is seeded, and the plain search answers.
  EngineOptions eopts;
  eopts.solver.cancel = &token;
  GlobalSlsEngine engine(f.program, eopts);
  token.Cancel();
  EXPECT_EQ(engine.StatusOf(b), GoalStatus::kSuccessful);
  EXPECT_EQ(engine.session(), nullptr);
  token.Reset();
  engine.ClearMemo();
  EXPECT_EQ(engine.StatusOf(b), GoalStatus::kSuccessful);
  ASSERT_NE(engine.session(), nullptr);

  // An oracle whose seed pass aborts seeds nothing — the plain search
  // answers, never the partial model — and once the caller resets the
  // token, the next query resumes the pass. A fault injected at the first
  // checkpoint after the grounding's cancels the token there, so it
  // aborts exactly the oracle's first solve pass.
  FaultInjector fault;
  fault.Arm(0);
  SessionOptions counting;
  counting.solver.fault = &fault;
  ASSERT_TRUE(Session::Open(f.program, counting).ok());
  const uint64_t grounding_checkpoints = fault.checkpoints();
  EngineOptions fopts;
  fopts.solver.cancel = &token;
  fopts.solver.fault = &fault;
  GlobalSlsEngine faulted(f.program, fopts);
  fault.Arm(grounding_checkpoints + 1);
  EXPECT_EQ(faulted.StatusOf(b), GoalStatus::kSuccessful);
  EXPECT_TRUE(fault.tripped());
  ASSERT_NE(faulted.session(), nullptr);
  EXPECT_GT(faulted.session()->solver().stats().aborted_passes, 0u);
  token.Reset();
  EXPECT_EQ(faulted.StatusOf(b), GoalStatus::kSuccessful);
  EXPECT_EQ(faulted.session()->solver().stats().resumed_passes, 1u);
}

TEST(AuditTest, CleanOnHealthySolverAcrossDeltas) {
  Fixture f(kProgram);
  SolverOptions opts;
  opts.compute_levels = true;
  IncrementalSolver inc(MustGround(f.program), opts);
  inc.Model();
  check::AuditReport r1 = check::AuditSolver(inc);
  EXPECT_TRUE(r1.ok()) << r1.ToString();
  EXPECT_TRUE(r1.graph_audited);
  EXPECT_GT(r1.components_checked, 0u);
  inc.Retract(MustParseTerm(f.store, "a"));
  // Pre-solve: dirty components are memo-invalid, nothing half-updated.
  check::AuditReport r2 = check::AuditSolver(inc);
  EXPECT_TRUE(r2.ok()) << r2.ToString();
  inc.Model();
  check::AuditReport r3 = check::AuditSolver(inc);
  EXPECT_TRUE(r3.ok()) << r3.ToString();
}

TEST(AuditTest, BeforeFirstSolveIsVacuouslyClean) {
  Fixture f(kProgram);
  IncrementalSolver inc(MustGround(f.program));
  check::AuditReport report = check::AuditSolver(inc);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.components_checked, 0u);
}

TEST(SolveOutcomeTest, Names) {
  EXPECT_STREQ(SolveOutcomeName(SolveOutcome::kCompleted), "completed");
  EXPECT_STREQ(SolveOutcomeName(SolveOutcome::kCancelled), "cancelled");
  EXPECT_STREQ(SolveOutcomeName(SolveOutcome::kDeadlineExceeded),
               "deadline-exceeded");
}

}  // namespace
}  // namespace gsls
