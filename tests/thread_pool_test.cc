// Shutdown and cancellation races for the work-stealing pool and the
// parallel solve path, written to run under the TSan CI job: pool
// teardown right after (and interleaved with) jobs, `Cancel()` raced
// from multiple threads against an in-flight parallel solve, and
// cancel-then-resubmit cycles reusing the same pool.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.h"
#include "solver/incremental.h"
#include "test_support.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wfs/wfs.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;
using testing::MustGround;

TEST(ThreadPoolShutdownTest, DestructorWithoutAnyJob) {
  for (int i = 0; i < 8; ++i) {
    WorkStealingPool pool(4);
  }
}

TEST(ThreadPoolShutdownTest, DestructorRightAfterFanOutJob) {
  // The destructor must close the worker barrier cleanly no matter how
  // recently the last task of a pushing job retired.
  for (int round = 0; round < 16; ++round) {
    WorkStealingPool pool(4);
    std::atomic<uint32_t> done{0};
    const uint32_t seeds[] = {0, 1, 2, 3};
    pool.Run(seeds, [&](unsigned worker, uint32_t task) {
      if (task < 4) {
        for (uint32_t child = 0; child < 8; ++child) {
          pool.Push(worker, 100 + 8 * task + child);
        }
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), 4u + 32u);
    // Pool destroyed here, immediately after Run returned.
  }
}

TEST(ThreadPoolShutdownTest, SequentialJobsReuseSleepingWorkers) {
  WorkStealingPool pool(4);
  for (int round = 0; round < 32; ++round) {
    std::atomic<uint32_t> done{0};
    const uint32_t seeds[] = {1, 2, 3, 4, 5, 6, 7, 8};
    pool.Run(seeds, [&](unsigned, uint32_t) {
      done.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(done.load(), 8u);
  }
}

// A moderately big mixed-recursion workload so a parallel solve has real
// work for cancellation to land in.
std::string BigGame() {
  Rng rng(20260809);
  return workload::RandomGame(rng, 48, 24);
}

TEST(ParallelCancelTest, CancelRacedFromTwoThreads) {
  // Both racers cancel the same token while the solve runs; whichever
  // checkpoint observes it first latches the one outcome. Depending on
  // timing the solve may also complete first — both endings are legal,
  // and both must leave an audit-clean solver that resumes exactly.
  for (int round = 0; round < 4; ++round) {
    Fixture f(BigGame());
    CancelToken token;
    SolverOptions opts;
    opts.num_threads = 4;
    opts.compute_levels = true;
    opts.cancel = &token;
    IncrementalSolver inc(MustGround(f.program), opts);
    std::thread racer1([&] { token.Cancel(); });
    std::thread racer2([&] { token.Cancel(); });
    const SolveOutcome outcome = inc.Model().outcome;
    racer1.join();
    racer2.join();
    EXPECT_TRUE(outcome == SolveOutcome::kCompleted ||
                outcome == SolveOutcome::kCancelled);
    check::AuditReport mid = check::AuditSolver(inc);
    ASSERT_TRUE(mid.ok()) << mid.ToString();
    token.Reset();
    const WfsModel& resumed = inc.Model();
    ASSERT_EQ(resumed.outcome, SolveOutcome::kCompleted);
    WfsModel fresh = inc.SolveFresh();
    ASSERT_EQ(resumed.model, fresh.model)
        << DescribeModelDifference(inc.program(), resumed.model, fresh.model);
    EXPECT_EQ(resumed.true_stage, fresh.true_stage);
    EXPECT_EQ(resumed.false_stage, fresh.false_stage);
  }
}

TEST(ParallelCancelTest, CancelThenResubmitCycles) {
  // Abort a parallel pass, resume it, dirty the model, abort again —
  // the same pool instance carries every cycle.
  Fixture f(BigGame());
  CancelToken token;
  FaultInjector fault;
  SolverOptions opts;
  opts.num_threads = 4;
  opts.compute_levels = true;
  opts.cancel = &token;
  opts.fault = &fault;
  IncrementalSolver inc(MustGround(f.program), opts);
  const Term* n0 = MustParseTerm(f.store, "move(n0, n1)");
  for (uint64_t cycle = 1; cycle <= 4; ++cycle) {
    fault.Arm(2 * cycle);  // vary the abort point per cycle
    SolveOutcome aborted = inc.Model().outcome;
    if (fault.tripped()) {
      EXPECT_EQ(aborted, SolveOutcome::kCancelled);
    }
    fault.Disarm();
    token.Reset();
    ASSERT_EQ(inc.Model().outcome, SolveOutcome::kCompleted);
    check::AuditReport report = check::AuditSolver(inc);
    ASSERT_TRUE(report.ok()) << report.ToString();
    // Alternate the fact so every cycle has a fresh up-cone to abort.
    if (cycle % 2 == 1) {
      inc.Retract(n0);
    } else {
      inc.Assert(n0);
    }
  }
  token.Reset();
  ASSERT_EQ(inc.Model().outcome, SolveOutcome::kCompleted);
  WfsModel fresh = inc.SolveFresh();
  ASSERT_EQ(inc.Model().model, fresh.model);
}

TEST(ParallelCancelTest, AbortedScheduleDrainsAndPoolStaysUsable) {
  // A pre-cancelled token aborts the very first released component; the
  // ready-release schedule must still drain (no released-but-never-run
  // task may wedge the barrier) and the pool must accept the next job.
  Fixture f(BigGame());
  CancelToken token;
  SolverOptions opts;
  opts.num_threads = 4;
  opts.compute_levels = true;
  opts.cancel = &token;
  IncrementalSolver inc(MustGround(f.program), opts);
  token.Cancel();
  ASSERT_EQ(inc.Model().outcome, SolveOutcome::kCancelled);
  token.Reset();
  ASSERT_EQ(inc.Model().outcome, SolveOutcome::kCompleted);
  ASSERT_EQ(inc.Model().model, inc.SolveFresh().model);
}

}  // namespace
}  // namespace gsls
