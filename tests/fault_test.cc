// Exhaustive abort-at-every-checkpoint drill for the crash-consistent
// abort protocol (util/cancel.h, solver/incremental.h): a fixed scenario
// of solves, queries, and rule/fact deltas is first run unarmed to count
// its cancellation checkpoints N, then re-run N times with a deterministic
// fault injected at checkpoint k = 1..N. After every abort the solver must
// audit clean (check::AuditSolver — every component fully old or fully
// new), and after disarming + resuming, the recovered model and stages
// must be bit-identical to a from-scratch solve of the same program.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.h"
#include "solver/incremental.h"
#include "term/term_store.h"
#include "test_support.h"
#include "util/cancel.h"
#include "wfs/wfs.h"

namespace gsls {
namespace {

using testing::Fixture;
using testing::MustGround;

// Multi-component scenario program: stratified chains, a positive loop
// with external support, a negative two-loop (undefined pair), and mixed
// recursion through negation — every per-SCC pipeline variant
// (non-recursive direct eval, lfp, alternating + unfounded floods).
constexpr char kScenarioProgram[] = R"(
  a0.
  a1 :- a0.
  a2 :- a1, not a3.
  a3 :- not a2.
  p :- q.  q :- p.  p :- a1.
  w1 :- not w2.  w2 :- not w1.
  g1 :- g2, not a2.  g2 :- g1.
  b0.  b1 :- b0, not w1.
  b2 :- b1, not g1.
  c1 :- a2, not p.
  c2 :- c1.  c2 :- b2.
)";

struct Scenario {
  Fixture f{kScenarioProgram};
  std::unique_ptr<IncrementalSolver> inc;
  CancelToken token;
  FaultInjector fault;

  explicit Scenario(unsigned threads) {
    SolverOptions opts;
    opts.num_threads = threads;
    opts.compute_levels = true;
    opts.cancel = &token;
    opts.fault = &fault;
    inc = std::make_unique<IncrementalSolver>(MustGround(f.program), opts);
  }

  const Term* T(std::string_view src) {
    return MustParseTerm(f.store, src);
  }

  // The fixed step sequence the exhaustive loop quantifies over. Solve
  // passes may abort mid-step once the fault trips; mutations always
  // apply (recondensation windows complete structurally — latch-only
  // checkpoints), so the *program* is identical at every k and only the
  // solved state varies.
  void Run() {
    inc->Model();                                  // full solve
    inc->Assert(T("a3x"));                         // new fact, new atom
    inc->Model();                                  // incremental up-cone
    inc->Retract(T("a0"));                         // big up-cone delta
    inc->QueryAtom(T("g1"));                       // goal-directed down-cone
    // Order-violating rule: a0's component gains a dependency on g2's
    // (ordered above it) — forces a recondensation window, and the cycle
    // a0 -> g2 -> g1 -> a2 -> a1 -> a0 merges components.
    const Term* pos[] = {T("g2")};
    RuleId rid = inc->AssertRule(T("a0"), pos, {});
    inc->Model();
    inc->RetractRule(rid);                         // split the merge back
    inc->Model();
    inc->QueryAtom(T("c2"));
  }
};

void ExpectAuditClean(const IncrementalSolver& inc, const char* when, int k) {
  check::AuditReport report = check::AuditSolver(inc);
  EXPECT_TRUE(report.ok())
      << when << " (trip at checkpoint " << k << "):\n" << report.ToString();
}

void ExpectRecoveredEqualsFresh(Scenario& s, int k) {
  const WfsModel& recovered = s.inc->Model();
  ASSERT_EQ(recovered.outcome, SolveOutcome::kCompleted)
      << "resume after trip " << k << " did not complete";
  WfsModel fresh = s.inc->SolveFresh();
  ASSERT_EQ(recovered.model, fresh.model)
      << "trip at checkpoint " << k << ":\n"
      << DescribeModelDifference(s.inc->program(), recovered.model,
                                 fresh.model);
  ASSERT_TRUE(recovered.has_levels);
  ASSERT_TRUE(fresh.has_levels);
  EXPECT_EQ(recovered.true_stage, fresh.true_stage)
      << "true stages diverge after trip " << k;
  EXPECT_EQ(recovered.false_stage, fresh.false_stage)
      << "false stages diverge after trip " << k;
}

uint64_t CountCheckpoints(unsigned threads) {
  Scenario s(threads);
  s.fault.Arm(0);  // count, never trip
  s.Run();
  EXPECT_FALSE(s.fault.tripped());
  return s.fault.checkpoints();
}

void ExhaustiveAbortRecovery(unsigned threads) {
  const uint64_t n = CountCheckpoints(threads);
  ASSERT_GT(n, 0u);
  for (uint64_t k = 1; k <= n; ++k) {
    Scenario s(threads);
    s.fault.Arm(k);
    s.Run();
    ASSERT_TRUE(s.fault.tripped())
        << "checkpoint " << k << " of " << n << " never fired";
    ExpectAuditClean(*s.inc, "post-abort audit", static_cast<int>(k));
    // Recovery: stop injecting, clear the latched token, resume. The
    // remaining stale components re-solve; everything already finalized
    // is served from the memo.
    s.fault.Disarm();
    s.token.Reset();
    ExpectRecoveredEqualsFresh(s, static_cast<int>(k));
    ExpectAuditClean(*s.inc, "post-recovery audit", static_cast<int>(k));
  }
}

TEST(FaultInjectionTest, ExhaustiveAbortRecoverySequential) {
  ExhaustiveAbortRecovery(1);
}

TEST(FaultInjectionTest, ExhaustiveAbortRecoveryTwoThreads) {
  ExhaustiveAbortRecovery(2);
}

TEST(FaultInjectionTest, ExhaustiveAbortRecoveryFourThreads) {
  ExhaustiveAbortRecovery(4);
}

// The checkpoint count of a *completed* scenario is schedule-independent:
// one boundary checkpoint per solved component plus fixed-stride inner
// ticks, none of which depend on worker interleaving. This is what makes
// one learned N exhaustive at every thread count.
TEST(FaultInjectionTest, CheckpointCountIsThreadCountInvariant) {
  const uint64_t n1 = CountCheckpoints(1);
  EXPECT_EQ(n1, CountCheckpoints(2));
  EXPECT_EQ(n1, CountCheckpoints(4));
}

// A trip with no caller-supplied token aborts only its own pass: there is
// no token to latch it, so once the injector is disarmed the next pass
// resumes and finishes the model.
TEST(FaultInjectionTest, FaultWithoutCallerTokenAbortsOnlyItsPass) {
  Fixture f("a. b :- a. c :- b, not d. d :- not c.");
  SolverOptions opts;
  FaultInjector fault;
  opts.fault = &fault;
  IncrementalSolver inc(MustGround(f.program), opts);
  fault.Arm(1);
  EXPECT_EQ(inc.Model().outcome, SolveOutcome::kCancelled);
  ASSERT_TRUE(fault.tripped());
  fault.Disarm();
  const WfsModel resumed = inc.Model();
  EXPECT_EQ(resumed.outcome, SolveOutcome::kCompleted);
  EXPECT_EQ(inc.stats().aborted_passes, 1u);
  EXPECT_EQ(inc.stats().resumed_passes, 1u);
  EXPECT_EQ(resumed.model, inc.SolveFresh().model);
  // Detaching the injector keeps the solver completing.
  inc.SetFaultInjector(nullptr);
  EXPECT_EQ(inc.Model().outcome, SolveOutcome::kCompleted);
}

}  // namespace
}  // namespace gsls
