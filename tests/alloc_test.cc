// Allocation budgets of the open path, counted through a replaced global
// `operator new`, so they hold on any machine and under any load:
// grounding stores each rule without a heap block of its own, and the
// first snapshot's atom index is two flat arrays, not a node per atom.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ground/grounder.h"
#include "serve/snapshot.h"
#include "solver/incremental.h"
#include "test_support.h"
#include "util/rng.h"
#include "workload/generators.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
// The sanitizers interpose their own allocator; the counts are not
// comparable there, so the budgets are skipped.
#define GSLS_COUNT_ALLOCATIONS 0
#else
#define GSLS_COUNT_ALLOCATIONS 1
#endif

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

#if GSLS_COUNT_ALLOCATIONS
// The array, nothrow and sized forms forward to these two by default.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace gsls {
namespace {

using testing::Fixture;

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

struct Family {
  std::string name;
  std::string src;
};

std::vector<Family> Families() {
  Rng forest(3), game(5), reach(7);
  return {
      {"grid", workload::GameGrid(40, 30)},
      {"forest", workload::GameForest(forest, 24, 40, 8)},
      {"random_game", workload::RandomGame(game, 600, 1)},
      {"reach_neg", workload::ReachabilityWithNegation(reach, 40, 10)},
  };
}

TEST(AllocationBudgetTest, GroundingAllocatesLessThanOncePerFourRules) {
  if (!GSLS_COUNT_ALLOCATIONS) GTEST_SKIP() << "sanitizer build";
  for (const Family& family : Families()) {
    Fixture f(family.src);
    GroundingStats stats;
    const uint64_t before = Allocations();
    Result<GroundProgram> gp = GroundRelevant(f.program, {}, nullptr, &stats);
    const uint64_t allocations = Allocations() - before;
    ASSERT_TRUE(gp.ok()) << family.name;
    ASSERT_GT(stats.emitted, 1000u) << family.name;
    const double per_rule =
        static_cast<double>(allocations) / static_cast<double>(stats.emitted);
    EXPECT_LE(per_rule, 0.25)
        << family.name << ": " << allocations << " allocations for "
        << stats.emitted << " emitted rules";
  }
}

TEST(AllocationBudgetTest, FirstSnapshotAllocatesPerPageNotPerAtom) {
  if (!GSLS_COUNT_ALLOCATIONS) GTEST_SKIP() << "sanitizer build";
  for (const Family& family : Families()) {
    Fixture f(family.src);
    SolverOptions opts;
    opts.compute_levels = true;
    IncrementalSolver solver(testing::MustGround(f.program), opts);
    ASSERT_EQ(solver.Model().outcome, SolveOutcome::kCompleted);
    const size_t atoms = solver.program().atom_count();
    const size_t pages = (atoms + serve::kPageAtoms - 1) / serve::kPageAtoms;
    ASSERT_GT(atoms, 1000u) << family.name;
    IncrementalSolver::ResolveLog log;
    log.all_atoms = true;
    serve::SnapshotBuilder builder;
    const uint64_t before = Allocations();
    std::shared_ptr<const serve::Snapshot> snap =
        builder.Build(solver, std::move(log), /*epoch=*/0, /*seq=*/0);
    const uint64_t allocations = Allocations() - before;
    ASSERT_EQ(snap->atom_count(), atoms) << family.name;
    EXPECT_LE(allocations, 4 * pages + 32)
        << family.name << ": " << atoms << " atoms on " << pages << " pages";
    // The flat index answers every registered atom.
    for (AtomId a = 0; a < atoms; ++a) {
      ASSERT_EQ(snap->index().Find(solver.program().AtomTerm(a)), a)
          << family.name;
    }
  }
}

}  // namespace
}  // namespace gsls
