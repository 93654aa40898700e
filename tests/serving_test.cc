// The MVCC serving layer (src/serve/): snapshot-isolated readers over a
// batching delta writer. Coverage — initial publish and point reads;
// deterministic batching (N queued deltas fold into ONE cone re-solve and
// ONE published epoch via start_paused); concurrent reader fleets whose
// every answer is replayed against a fresh solve of the answering epoch's
// exact program state (the epoch-tagged oracle); epoch-based reclamation
// under held pins; and the serving audit (snapshot/tape fidelity, pool
// unreachability, reclaim-horizon records, pin/ring integrity). Built for
// TSan: the reader/writer tests exercise the pin protocol edges directly.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "solver/incremental.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/strings.h"
#include "wfs/wfs.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;
using testing::MustGround;

SolverOptions Leveled(unsigned threads = 1) {
  SolverOptions opts;
  opts.num_threads = threads;
  opts.compute_levels = true;
  return opts;
}

std::unique_ptr<IncrementalSolver> MakeSolver(const Program& program,
                                              SolverOptions sopts) {
  return std::make_unique<IncrementalSolver>(MustGround(program), sopts);
}

/// The mixed-recursion serving workload: a win/move game over `n` nodes
/// with a few seed edges; the delta stream toggles `move` facts.
std::string GameProgram(int n) {
  std::string src = "win(X) :- move(X, Y), not win(Y).\n";
  for (int i = 0; i + 1 < n; ++i) {
    src += StrCat("move(n", i, ", n", i + 1, ").\n");
  }
  return src;
}

/// A pre-generated randomized delta script. Half the ops toggle *seed*
/// chain edges (their grounded win-rule instances exist, so the model
/// genuinely churns — deltas never re-ground rules); the rest hit edges
/// outside the seed grounding, growing the atom universe and forcing
/// copy-on-intern index rebuilds.
std::vector<std::pair<const Term*, bool>> MakeDeltaScript(TermStore& store,
                                                          Rng& rng, int n,
                                                          int count) {
  std::vector<std::pair<const Term*, bool>> script;
  script.reserve(count);
  for (int k = 0; k < count; ++k) {
    int i;
    int j;
    if (rng.Chance(1, 2)) {
      i = rng.UniformInt(0, n - 2);
      j = i + 1;  // a seed edge: its win instance is grounded
    } else {
      i = rng.UniformInt(0, n - 1);
      j = rng.UniformInt(0, n - 1);
      if (j == i) j = (j + 1) % n;
    }
    const Term* t = MustParseTerm(
        store, StrCat("move(n", i, ", n", j, ")"));
    script.emplace_back(t, rng.Chance(3, 5));  // 60% asserts
  }
  return script;
}

TEST(ServingTest, InitialEpochServesTheModel) {
  Fixture f("p :- not q.\nq :- r.\n");
  serve::ServingSolver server(MakeSolver(f.program, Leveled()));
  EXPECT_EQ(server.epochs().current_epoch(), 1u);
  EXPECT_EQ(server.published_seq(), 0u);

  serve::EpochStore::ReaderHandle h = server.RegisterReader();
  ASSERT_TRUE(h.valid());
  uint64_t epoch = 0;
  serve::SnapshotAnswer p =
      server.Read(h, MustParseTerm(f.store, "p"), &epoch);
  EXPECT_EQ(p.value, TruthValue::kTrue);
  EXPECT_TRUE(p.registered);
  EXPECT_EQ(epoch, 1u);
  serve::SnapshotAnswer q =
      server.Read(h, MustParseTerm(f.store, "q"));
  EXPECT_EQ(q.value, TruthValue::kFalse);
  // Unregistered atoms: false (failed) at stage 1, the shared convention.
  serve::SnapshotAnswer missing =
      server.Read(h, MustParseTerm(f.store, "nowhere"));
  EXPECT_EQ(missing.value, TruthValue::kFalse);
  EXPECT_EQ(missing.false_stage, 1u);
  EXPECT_FALSE(missing.registered);
}

/// The serving benchmark's workload: toggles of random edges
/// move(n<i>, n<i+1>), i in [0, nodes - 2], of a chain, half asserts.
std::vector<std::pair<const Term*, bool>> ChainToggleScript(TermStore& store,
                                                            Rng& rng,
                                                            int nodes,
                                                            int count) {
  std::vector<std::pair<const Term*, bool>> script;
  for (int k = 0; k < count; ++k) {
    const int i = rng.UniformInt(0, nodes - 2);
    script.emplace_back(
        MustParseTerm(store, StrCat("move(n", i, ", n", i + 1, ")")),
        rng.Chance(1, 2));
  }
  return script;
}

/// Queues `make_script(store)` against a paused writer over `src`; on
/// resume the deltas must fold into ONE writer batch, ONE incremental
/// solver pass and ONE published epoch.
template <typename MakeScript>
void ExpectQueuedDeltasFoldIntoOneBatch(const std::string& src,
                                        MakeScript make_script) {
  Fixture f(src);
  serve::ServeOptions opts;
  opts.start_paused = true;
  serve::ServingSolver server(MakeSolver(f.program, Leveled()), opts);
  const uint64_t passes_before = server.solver().stats().incremental_solves;

  std::vector<std::pair<const Term*, bool>> script = make_script(f.store);
  const uint64_t deltas = script.size();
  for (const auto& [term, is_assert] : script) {
    const uint64_t seq =
        is_assert ? server.Assert(term) : server.Retract(term);
    EXPECT_GT(seq, 0u);
  }
  // Paused: everything queues, nothing applies, nothing publishes.
  EXPECT_EQ(server.queue_depth(), deltas);
  EXPECT_EQ(server.published_seq(), 0u);
  EXPECT_EQ(server.epochs().current_epoch(), 1u);

  server.Resume();
  server.Flush();

  // The batching contract: N deltas, ONE writer batch (one Model() cone
  // re-solve), ONE new epoch.
  serve::ServingSolver::Stats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.deltas_applied, deltas);
  EXPECT_EQ(stats.max_batch, deltas);
  EXPECT_EQ(server.solver().stats().incremental_solves - passes_before, 1u);
  EXPECT_EQ(stats.epochs_published, 2u);  // initial + the batch
  EXPECT_EQ(server.epochs().current_epoch(), 2u);
  EXPECT_EQ(server.published_seq(), deltas);

  check::AuditReport report = check::AuditServing(server);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.serving_atoms_checked, 0u);
}

TEST(ServingTest, PausedWriterFoldsQueuedDeltasIntoOneBatch) {
  ExpectQueuedDeltasFoldIntoOneBatch(GameProgram(40), [](TermStore& store) {
    Rng rng(7);
    return MakeDeltaScript(store, rng, 40, 32);
  });
  // The serving benchmark's chain(1024) with 64 queued edge toggles.
  ExpectQueuedDeltasFoldIntoOneBatch(
      workload::GameChain(1024), [](TermStore& store) {
        Rng rng(11);
        return ChainToggleScript(store, rng, 1024, 64);
      });
}

// The same 200 chain-edge toggles served at 1, 2 and 4 solver threads
// publish bit-identical answers (values and stages) for every win atom
// and seed edge of chain(1024).
TEST(ServingTest, FinalEpochIsBitIdenticalAcrossSolverThreads) {
  constexpr int kNodes = 1024;
  std::vector<std::vector<serve::SnapshotAnswer>> answers;
  for (unsigned threads : {1u, 2u, 4u}) {
    Fixture f(workload::GameChain(kNodes));
    serve::ServingSolver server(MakeSolver(f.program, Leveled(threads)));
    Rng rng(0xBEEF);
    for (const auto& [term, is_assert] :
         ChainToggleScript(f.store, rng, kNodes, 200)) {
      if (is_assert) {
        server.Assert(term);
      } else {
        server.Retract(term);
      }
    }
    server.Flush();
    serve::EpochStore::ReaderHandle h = server.RegisterReader();
    std::vector<serve::SnapshotAnswer>& out = answers.emplace_back();
    for (int i = 0; i < kNodes; ++i) {
      out.push_back(
          server.Read(h, MustParseTerm(f.store, StrCat("win(n", i, ")"))));
      if (i + 1 < kNodes) {
        out.push_back(server.Read(
            h, MustParseTerm(f.store, StrCat("move(n", i, ", n", i + 1, ")"))));
      }
    }
  }
  for (size_t t = 1; t < answers.size(); ++t) {
    ASSERT_EQ(answers[t].size(), answers[0].size());
    for (size_t i = 0; i < answers[0].size(); ++i) {
      const serve::SnapshotAnswer& got = answers[t][i];
      const serve::SnapshotAnswer& want = answers[0][i];
      EXPECT_EQ(got.value, want.value) << "probe " << i << " solver " << t;
      EXPECT_EQ(got.true_stage, want.true_stage) << "probe " << i;
      EXPECT_EQ(got.false_stage, want.false_stage) << "probe " << i;
      EXPECT_EQ(got.registered, want.registered) << "probe " << i;
    }
  }
}

/// One recorded concurrent read: which term, which epoch's seq answered,
/// and what the snapshot said.
struct ReadRecord {
  const Term* term = nullptr;
  uint64_t seq = 0;
  serve::SnapshotAnswer answer;
};

/// The oracle half of the snapshot-isolation contract: rebuild the
/// program state at every observed seq (base program + script prefix) on
/// an independent solver, fresh-solve it, and demand every concurrent
/// answer bit-identical — values AND Def. 2.4 stages.
void ReplayAgainstFreshSolves(
    const Program& program,
    const std::vector<std::pair<const Term*, bool>>& script,
    std::vector<ReadRecord> records) {
  std::map<uint64_t, std::vector<ReadRecord>> by_seq;
  for (ReadRecord& r : records) by_seq[r.seq].push_back(std::move(r));

  IncrementalSolver oracle(MustGround(program), Leveled());
  uint64_t applied = 0;
  for (const auto& [seq, reads] : by_seq) {
    ASSERT_LE(seq, script.size());
    while (applied < seq) {
      const auto& [term, is_assert] = script[applied];
      if (is_assert) {
        oracle.Assert(term);
      } else {
        oracle.Retract(term);
      }
      ++applied;
    }
    const WfsModel fresh = oracle.SolveFresh();
    for (const ReadRecord& r : reads) {
      std::optional<AtomId> id = oracle.program().FindAtom(r.term);
      if (!id.has_value()) {
        EXPECT_EQ(r.answer.value, TruthValue::kFalse)
            << "unregistered atom read true at seq " << seq;
        EXPECT_EQ(r.answer.false_stage, 1u);
        continue;
      }
      ASSERT_EQ(r.answer.value, fresh.model.Value(*id))
          << "seq " << seq << ": concurrent answer diverged from the "
          << "fresh solve of that epoch's program state";
      if (r.answer.value == TruthValue::kTrue) {
        EXPECT_EQ(r.answer.true_stage, fresh.true_stage[*id])
            << "seq " << seq;
      } else if (r.answer.value == TruthValue::kFalse &&
                 r.answer.registered) {
        EXPECT_EQ(r.answer.false_stage, fresh.false_stage[*id])
            << "seq " << seq;
      }
    }
  }
}

void RunConcurrentReaders(int num_readers) {
  constexpr int kNodes = 24;
  constexpr int kDeltas = 120;
  Fixture f(GameProgram(kNodes));
  Rng rng(0xC0FFEE + num_readers);
  std::vector<std::pair<const Term*, bool>> script =
      MakeDeltaScript(f.store, rng, kNodes, kDeltas);
  // Readers probe win/move atoms over the whole universe — including
  // atoms only the delta stream (or nothing at all) interns. All terms
  // are interned up front: the TermStore is not written during the run.
  std::vector<const Term*> probes;
  for (int i = 0; i < kNodes; ++i) {
    probes.push_back(
        MustParseTerm(f.store, StrCat("win(n", i, ")")));
    probes.push_back(MustParseTerm(
        f.store, StrCat("move(n", i, ", n", (i + 3) % kNodes, ")")));
  }

  serve::ServingSolver server(MakeSolver(f.program, Leveled()));
  std::atomic<bool> stop{false};
  std::vector<std::vector<ReadRecord>> per_reader(num_readers);
  std::vector<std::thread> readers;
  readers.reserve(num_readers);
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&, r] {
      serve::EpochStore::ReaderHandle h = server.RegisterReader();
      ASSERT_TRUE(h.valid());
      Rng reader_rng(1000 + r);
      // do-while: the write stream can finish before a late-scheduled
      // reader's first iteration; every reader still records >= 1 read.
      do {
        ReadRecord rec;
        rec.term = probes[reader_rng.Uniform(probes.size())];
        rec.answer = server.Read(h, rec.term, nullptr, &rec.seq);
        per_reader[r].push_back(rec);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  // Writer stream: every delta submitted while readers hammer snapshots.
  for (const auto& [term, is_assert] : script) {
    if (is_assert) {
      server.Assert(term);
    } else {
      server.Retract(term);
    }
  }
  server.Flush();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  check::AuditReport report = check::AuditServing(server);
  EXPECT_TRUE(report.ok()) << report.ToString();

  std::vector<ReadRecord> all;
  for (std::vector<ReadRecord>& v : per_reader) {
    EXPECT_FALSE(v.empty());
    all.insert(all.end(), v.begin(), v.end());
  }
  ReplayAgainstFreshSolves(f.program, script, std::move(all));
}

TEST(ServingTest, OneReaderMatchesEpochOracle) { RunConcurrentReaders(1); }
TEST(ServingTest, TwoReadersMatchEpochOracle) { RunConcurrentReaders(2); }
TEST(ServingTest, FourReadersMatchEpochOracle) { RunConcurrentReaders(4); }

TEST(ServingTest, HeldPinBlocksReclamationUntilReleased) {
  Fixture f(GameProgram(16));
  serve::ServingSolver server(MakeSolver(f.program, Leveled()));
  serve::EpochStore::ReaderHandle h = server.RegisterReader();
  ASSERT_TRUE(h.valid());

  // Pin epoch 1 and hold it across many publishes.
  serve::EpochStore::Pinned pinned = server.epochs().Pin(h);
  EXPECT_EQ(pinned.epoch, 1u);
  const TruthValue pinned_w0 =
      pinned.snapshot->Query(MustParseTerm(f.store, "win(n0)"))
          .value;

  Rng rng(42);
  std::vector<std::pair<const Term*, bool>> script =
      MakeDeltaScript(f.store, rng, 16, 60);
  for (const auto& [term, is_assert] : script) {
    if (is_assert) {
      server.Assert(term);
    } else {
      server.Retract(term);
    }
    server.Flush();  // one epoch per delta: maximal retirement pressure
  }

  // The pin is the reclaim horizon: nothing may be freed at or above it.
  EXPECT_EQ(server.stats().reclaimed_snapshots, 0u);
  EXPECT_GT(server.epochs().retired_count(), 0u);
  EXPECT_EQ(server.epochs().MinPinned(), 1u);
  // The pinned snapshot is still fully readable — same bytes as at pin
  // time, regardless of everything published since.
  EXPECT_EQ(
      pinned.snapshot->Query(MustParseTerm(f.store, "win(n0)"))
          .value,
      pinned_w0);

  server.epochs().Unpin(h);
  // More publishes move the horizon past the retired backlog.
  server.Assert(MustParseTerm(f.store, "move(n0, n5)"));
  server.Flush();
  server.Retract(MustParseTerm(f.store, "move(n0, n5)"));
  server.Flush();
  EXPECT_GT(server.stats().reclaimed_snapshots, 0u);

  check::AuditReport report = check::AuditServing(server);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.serving_reclaims_checked, 0u);
}

TEST(ServingTest, RecycledPagesFeedLaterBuilds) {
  Fixture f(GameProgram(12));
  serve::ServingSolver server(MakeSolver(f.program, Leveled()));
  // No pins at all: every superseded epoch reclaims on the next publish
  // and its exclusively-owned pages re-enter the builder pool. Every
  // delta is a real change (assert-then-retract of the same fact), so
  // every publish re-materializes the touched page and the superseded
  // epoch's copy becomes exclusively owned.
  for (int k = 0; k < 20; ++k) {
    const Term* t = MustParseTerm(
        f.store, StrCat("move(n0, n", 2 + ((k / 2) % 9), ")"));
    if (k % 2 == 0) {
      server.Assert(t);
    } else {
      server.Retract(t);
    }
    server.Flush();
  }
  serve::ServingSolver::Stats stats = server.stats();
  EXPECT_GT(stats.reclaimed_snapshots, 0u);
  EXPECT_GT(stats.recycled_pages, 0u);
  EXPECT_GT(server.builder().stats().pool_hits, 0u);

  check::AuditReport report = check::AuditServing(server);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.serving_pool_pages_checked +
                server.builder().stats().pool_hits,
            0u);
}

TEST(ServingTest, CowSharesCleanPagesAcrossEpochs) {
  // A program large enough for several pages; point deltas must clone
  // only the touched pages and share the rest.
  std::string src = "win(X) :- move(X, Y), not win(Y).\n";
  for (int i = 0; i + 1 < 2100; ++i) {
    src += StrCat("move(n", i, ", n", i + 1, ").\n");
  }
  Fixture f(src);
  serve::ServingSolver server(MakeSolver(f.program, Leveled()));
  const uint64_t shared_before = server.builder().stats().pages_shared;

  server.Retract(MustParseTerm(f.store, "move(n0, n1)"));
  server.Flush();
  EXPECT_GT(server.builder().stats().pages_shared, shared_before)
      << "a point delta must share every untouched page with the "
         "previous epoch";

  check::AuditReport report = check::AuditServing(server);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(ServingTest, SessionServingModeRoundTrip) {
  Fixture f(GameProgram(10));
  SessionOptions opts;
  opts.serving = true;
  Result<Session> session = Session::Open(f.program, std::move(opts));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Session s = std::move(session.value());
  ASSERT_TRUE(s.serving());

  SessionAnswer before =
      s.Query(MustParseTerm(f.store, "win(n9)"));
  EXPECT_EQ(before.status, GoalStatus::kFailed);  // sink node loses
  EXPECT_EQ(before.epoch, 1u);

  EXPECT_TRUE(s.Assert(MustParseTerm(f.store, "move(n9, n0)")));
  s.Flush();
  SessionAnswer after = s.Query(MustParseTerm(f.store, "win(n9)"));
  EXPECT_GE(after.epoch, 2u);
  EXPECT_EQ(after.seq, 1u);
  EXPECT_NE(after.status, GoalStatus::kUnknown);

  std::shared_ptr<const serve::Snapshot> snap = s.SnapshotNow();
  ASSERT_NE(snap, nullptr);
  EXPECT_GE(snap->epoch(), 2u);
  EXPECT_EQ(
      snap->Query(MustParseTerm(f.store, "win(n9)")).value,
      after.value);

  check::AuditReport report = check::AuditServing(*s.server());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace gsls
