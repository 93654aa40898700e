// The unified `gsls::Session` facade (serve/session.h): one entry point —
// open program, Assert/Retract facts and clauses, point Query, whole-model
// Snapshot — over what used to be three divergent surfaces. Coverage —
// facade answers match `TabledEngine` (`SolveRelevant`/`StatusOf`/
// `LevelOf`) and `GlobalSlsEngine` (`StatusOfRelevant`) atom for atom; the
// consolidated Assert/Retract clause vocabulary round-trips (including the
// nonground InvalidArgument contract); the engines really are thin
// adapters (their internal Session is observable); direct-mode snapshots
// match the live model; serving-mode sessions answer with epoch tags;
// `Open` grounds under the solver's cancellation options and publishes the
// grounding's telemetry; atoms a depth-capped grounding cannot decide
// answer `kUnknown` in both modes, also after rule deltas.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <sstream>

#include "core/engine.h"
#include "core/tabled.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "test_support.h"
#include "util/strings.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;

// The two paper staples plus an undefined loop: every truth value and a
// mix of stage levels.
constexpr const char* kMixedProgram =
    "p :- not q.\n"
    "q :- r.\n"
    "a :- not b.\n"
    "b :- not a.\n"
    "win(X) :- move(X, Y), not win(Y).\n"
    "move(n0, n1).\n"
    "move(n1, n2).\n";

std::vector<const Term*> ProbeAtoms(TermStore& store) {
  std::vector<const Term*> atoms;
  for (const char* s :
       {"p", "q", "r", "a", "b", "win(n0)", "win(n1)", "win(n2)",
        "move(n0, n1)", "move(n1, n2)", "unregistered_atom"}) {
    atoms.push_back(MustParseTerm(store, s));
  }
  return atoms;
}

TEST(SessionTest, OpenAnswersMatchTabledEngine) {
  Fixture f(kMixedProgram);
  Result<Session> opened = Session::Open(f.program);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Session session = std::move(opened.value());
  ASSERT_FALSE(session.serving());

  Result<TabledEngine> eng = TabledEngine::Create(f.program);
  ASSERT_TRUE(eng.ok());

  for (const Term* atom : ProbeAtoms(f.store)) {
    SessionAnswer ans = session.Query(atom);
    EXPECT_EQ(ans.status, eng.value().StatusOf(atom))
        << "status of " << f.store.ToString(atom);
    EXPECT_EQ(ans.value, eng.value().ValueOf(atom))
        << "value of " << f.store.ToString(atom);
    EXPECT_EQ(ans.level, eng.value().LevelOf(atom))
        << "level of " << f.store.ToString(atom);
  }
}

TEST(SessionTest, AnswersMatchGlobalSlsEngine) {
  Fixture f(kMixedProgram);
  Result<Session> opened = Session::Open(f.program);
  ASSERT_TRUE(opened.ok());
  Session session = std::move(opened.value());
  GlobalSlsEngine eng(f.program);
  for (const Term* atom : ProbeAtoms(f.store)) {
    EXPECT_EQ(session.Query(atom).status, eng.StatusOf(atom))
        << f.store.ToString(atom);
  }
}

TEST(SessionTest, UnregisteredAtomsFailAtStageOne) {
  Fixture f("p :- not q.\n");
  Result<Session> opened = Session::Open(f.program);
  ASSERT_TRUE(opened.ok());
  SessionAnswer ans =
      opened.value().Query(MustParseTerm(f.store, "never_mentioned"));
  EXPECT_EQ(ans.status, GoalStatus::kFailed);
  EXPECT_EQ(ans.value, TruthValue::kFalse);
  ASSERT_TRUE(ans.level.has_value());
  EXPECT_EQ(*ans.level, Ordinal::Finite(1));
}

TEST(SessionTest, FactDeltasApplySynchronouslyInDirectMode) {
  // Chain a -> b -> c: win(b) wins, win(a) and win(c) lose. Deltas toggle
  // grounded facts (they never re-ground rules).
  Fixture f("win(X) :- move(X, Y), not win(Y).\nmove(a, b).\nmove(b, c).\n");
  Result<Session> opened = Session::Open(f.program);
  ASSERT_TRUE(opened.ok());
  Session s = std::move(opened.value());

  EXPECT_EQ(s.Query(MustParseTerm(f.store, "win(b)")).status,
            GoalStatus::kSuccessful);
  EXPECT_EQ(s.Query(MustParseTerm(f.store, "win(a)")).status,
            GoalStatus::kFailed);

  EXPECT_TRUE(s.Retract(MustParseTerm(f.store, "move(b, c)")));
  EXPECT_FALSE(s.Retract(MustParseTerm(f.store, "move(b, c)")));  // no-op
  EXPECT_EQ(s.Query(MustParseTerm(f.store, "win(b)")).status,
            GoalStatus::kFailed);
  EXPECT_EQ(s.Query(MustParseTerm(f.store, "win(a)")).status,
            GoalStatus::kSuccessful);

  EXPECT_TRUE(s.Assert(MustParseTerm(f.store, "move(b, c)")));
  EXPECT_FALSE(s.Assert(MustParseTerm(f.store, "move(b, c)")));  // no-op
  EXPECT_EQ(s.Query(MustParseTerm(f.store, "win(b)")).status,
            GoalStatus::kSuccessful);
}

TEST(SessionTest, ClauseVocabularyRoundTrips) {
  Fixture f("p :- not q.\n");
  Result<Session> opened = Session::Open(f.program);
  ASSERT_TRUE(opened.ok());
  Session s = std::move(opened.value());

  TermStore& store = f.store;
  Program delta_prog = MustParseProgram(store, "q :- not p.\n");
  const Clause& rule = delta_prog.clauses()[0];
  ASSERT_TRUE(rule.ground());

  bool changed = false;
  Result<RuleId> id = s.Assert(rule, &changed);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(changed);
  // p :- not q and q :- not p: the classic undefined pair.
  EXPECT_EQ(s.Query(MustParseTerm(store, "p")).status,
            GoalStatus::kIndeterminate);
  EXPECT_EQ(s.Query(MustParseTerm(store, "q")).status,
            GoalStatus::kIndeterminate);

  // Content-addressed retraction restores the original model.
  EXPECT_TRUE(s.Retract(rule));
  EXPECT_EQ(s.Query(MustParseTerm(store, "p")).status,
            GoalStatus::kSuccessful);
  EXPECT_FALSE(s.Retract(rule));  // already gone

  // Nonground clauses are rejected: deltas never re-ground.
  Program nonground = MustParseProgram(store, "r(X) :- s(X).\n");
  Result<RuleId> bad = s.Assert(nonground.clauses()[0]);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, DirectModeSnapshotMatchesModel) {
  Fixture f(kMixedProgram);
  Result<Session> opened = Session::Open(f.program);
  ASSERT_TRUE(opened.ok());
  Session s = std::move(opened.value());
  s.Assert(MustParseTerm(f.store, "move(n2, n3)"));

  std::shared_ptr<const serve::Snapshot> snap = s.SnapshotNow();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->seq(), s.solver().stats().deltas);
  for (const Term* atom : ProbeAtoms(f.store)) {
    serve::SnapshotAnswer sa = snap->Query(atom);
    SessionAnswer qa = s.Query(atom);
    EXPECT_EQ(sa.value, qa.value) << f.store.ToString(atom);
    if (qa.value != TruthValue::kUndefined && sa.registered) {
      EXPECT_EQ(sa.true_stage, qa.true_stage);
      EXPECT_EQ(sa.false_stage, qa.false_stage);
    }
  }
}

TEST(SessionTest, DirectModeSnapshotOfAnAbortedPassIsNull) {
  // A snapshot carries no outcome, so a pass cut short by the step budget
  // must not hand out its partial model as if it were exact.
  Fixture f("p :- not q. q :- not r. r :- not s. s. t :- p.");
  Result<Session> opened = Session::Open(f.program);
  ASSERT_TRUE(opened.ok());
  Session s = std::move(opened.value());
  s.SetStepBudget(1);
  EXPECT_EQ(s.SnapshotNow(), nullptr);
  EXPECT_EQ(s.Query(MustParseTerm(f.store, "p")).status, GoalStatus::kUnknown);

  s.SetStepBudget(0);  // no budget: the pass completes
  std::shared_ptr<const serve::Snapshot> snap = s.SnapshotNow();
  ASSERT_NE(snap, nullptr);
  for (const auto& [atom, value] :
       {std::pair{"p", TruthValue::kFalse}, std::pair{"q", TruthValue::kTrue},
        std::pair{"r", TruthValue::kFalse}, std::pair{"s", TruthValue::kTrue},
        std::pair{"t", TruthValue::kFalse}}) {
    EXPECT_EQ(snap->Query(MustParseTerm(f.store, atom)).value, value) << atom;
  }
}

TEST(SessionTest, TabledEngineIsAThinAdapter) {
  Fixture f(kMixedProgram);
  Result<TabledEngine> eng = TabledEngine::Create(f.program);
  ASSERT_TRUE(eng.ok());
  // The engine's internal Session is the same object its adapters hit.
  Session& inner = eng.value().session();
  EXPECT_FALSE(inner.serving());
  EXPECT_EQ(&inner.solver(), &eng.value().solver());

  const Term* fact = MustParseTerm(f.store, "move(n2, n9)");
  EXPECT_TRUE(inner.Assert(fact));
  EXPECT_EQ(eng.value().ValueOf(fact), TruthValue::kTrue);
  EXPECT_EQ(eng.value().StatusOf(MustParseTerm(f.store, "win(n2)")),
            inner.Query(MustParseTerm(f.store, "win(n2)")).status);
}

TEST(SessionTest, GlobalSlsEngineExposesItsSession) {
  Fixture f(kMixedProgram);
  GlobalSlsEngine eng(f.program);
  EXPECT_EQ(eng.session(), nullptr);  // oracle builds lazily
  eng.StatusOf(MustParseTerm(f.store, "p"));
  ASSERT_NE(eng.session(), nullptr);
  EXPECT_FALSE(eng.session()->serving());
}

TEST(SessionTest, AdoptWrapsAnExistingSolver) {
  Fixture f("p :- not q.\n");
  auto solver = std::make_unique<IncrementalSolver>(
      testing::MustGround(f.program), SolverOptions{});
  Session s = Session::Adopt(std::move(solver));
  EXPECT_EQ(s.Query(MustParseTerm(f.store, "p")).status,
            GoalStatus::kSuccessful);
}

// --- depth-cap truncation ---

TEST(SessionTruncationTest, DroppedInstanceAnswersUnknownNotFailed) {
  // `s(f(a))` is deeper than the default cap (constants only), so the one
  // instance for q(a) is dropped — yet q(a) is true in the well-founded
  // model (s(f(a)) has no rules). The bounded fragment must not answer
  // kFailed.
  Fixture f("q(X) :- r(X), not s(f(X)).\nr(a).\n");
  Result<Session> opened = Session::Open(f.program);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  SessionAnswer q = opened.value().Query(MustParseTerm(f.store, "q(a)"));
  EXPECT_EQ(q.status, GoalStatus::kUnknown);
  EXPECT_TRUE(q.truncated);
  EXPECT_EQ(opened.value().Query(MustParseTerm(f.store, "r(a)")).status,
            GoalStatus::kSuccessful);
}

constexpr const char* kTruncatedProgram =
    "q(X) :- r(X), not s(f(X)).\n"
    "t(X) :- q(X).\n"
    "u(X) :- r(X), not q(X).\n"
    "w :- r(a).\n"
    "r(a).\n";

/// Statuses of the probe atoms of `kTruncatedProgram` plus the delta heads.
void ExpectTruncationCone(Session& s, TermStore& store, bool z_in_cone) {
  for (const char* open : {"q(a)", "t(a)", "u(a)"}) {
    SessionAnswer a = s.Query(MustParseTerm(store, open));
    EXPECT_EQ(a.status, GoalStatus::kUnknown) << open;
    EXPECT_TRUE(a.truncated) << open;
  }
  for (const char* exact : {"r(a)", "w", "y"}) {
    SessionAnswer a = s.Query(MustParseTerm(store, exact));
    EXPECT_EQ(a.status, GoalStatus::kSuccessful) << exact;
    EXPECT_FALSE(a.truncated) << exact;
  }
  SessionAnswer z = s.Query(MustParseTerm(store, "z"));
  EXPECT_EQ(z.status,
            z_in_cone ? GoalStatus::kUnknown : GoalStatus::kFailed);
}

void RunTruncationDeltas(bool serving) {
  Fixture f(kTruncatedProgram);
  SessionOptions opts;
  opts.serving = serving;
  Result<Session> opened = Session::Open(f.program, std::move(opts));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Session s = std::move(opened.value());
  ASSERT_EQ(s.serving(), serving);

  Program deltas = MustParseProgram(f.store, "z :- q(a).\ny :- r(a).\n");
  ASSERT_TRUE(s.Assert(deltas.clauses()[0]).ok());
  ASSERT_TRUE(s.Assert(deltas.clauses()[1]).ok());
  s.Flush();
  ExpectTruncationCone(s, f.store, /*z_in_cone=*/true);

  // Retracting z's only rule takes it out of the cone: no rules, false.
  EXPECT_TRUE(s.Retract(deltas.clauses()[0]));
  s.Flush();
  ExpectTruncationCone(s, f.store, /*z_in_cone=*/false);
}

TEST(SessionTruncationTest, ConeFollowsRuleDeltasInDirectMode) {
  RunTruncationDeltas(/*serving=*/false);
}

TEST(SessionTruncationTest, ConeFollowsRuleDeltasInServingMode) {
  RunTruncationDeltas(/*serving=*/true);
}

TEST(SessionTruncationTest, HeadBeyondTheCapAnswersUnknown) {
  // even(s^k(z)) for k up to the universe bound; the instance whose head
  // leaves the bound is recorded, and nothing below it depends on it.
  Fixture f("even(z).\neven(s(X)) :- not even(X).\n");
  SessionOptions opts;
  opts.grounding.universe.max_term_depth = 3;
  Result<Session> opened = Session::Open(f.program, std::move(opts));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Session s = std::move(opened.value());
  EXPECT_EQ(s.Query(MustParseTerm(f.store, "even(s(s(z)))")).status,
            GoalStatus::kSuccessful);
  EXPECT_EQ(s.Query(MustParseTerm(f.store, "even(s(s(s(z))))")).status,
            GoalStatus::kUnknown);
}

// --- grounding under cancellation ---

std::string CancellableProgram() {
  Rng rng(17);
  return workload::ReachabilityWithNegation(rng, 16, 25);
}

/// Checkpoints a plain grounding of `program` polls: the up-front poll
/// plus one per `kCancelStride` join candidates.
uint64_t GroundingCheckpoints(const Program& program) {
  FaultInjector counter;
  counter.Arm(0);
  CancelCtx ctx(nullptr, 0, 0, &counter);
  EXPECT_TRUE(GroundRelevant(program, {}, &ctx, nullptr).ok());
  return counter.checkpoints();
}

TEST(SessionCancelTest, PreExpiredDeadlineAbortsOpen) {
  Fixture f(CancellableProgram());
  SessionOptions opts;
  opts.solver.deadline_ns = 1;  // long past
  Result<Session> opened = Session::Open(f.program, std::move(opts));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SessionCancelTest, FaultAtEveryGroundingCheckpointAbortsOpen) {
  Fixture f(CancellableProgram());
  const uint64_t checkpoints = GroundingCheckpoints(f.program);
  ASSERT_GE(checkpoints, 3u);
  for (uint64_t k = 1; k <= checkpoints; ++k) {
    FaultInjector fault;
    fault.Arm(k);
    SessionOptions opts;
    opts.solver.fault = &fault;
    Result<Session> opened = Session::Open(f.program, std::move(opts));
    ASSERT_FALSE(opened.ok()) << "checkpoint " << k;
    EXPECT_EQ(opened.status().code(), StatusCode::kCancelled);
    EXPECT_TRUE(fault.tripped());
  }
  // One past the grounding's checkpoints: the open itself completes.
  FaultInjector late;
  late.Arm(checkpoints + 1);
  SessionOptions opts;
  opts.solver.fault = &late;
  EXPECT_TRUE(Session::Open(f.program, std::move(opts)).ok());
}

TEST(SessionCancelTest, TinyStepBudgetAbortsOpen) {
  Fixture f(CancellableProgram());
  ASSERT_GE(GroundingCheckpoints(f.program), 2u);
  SessionOptions opts;
  opts.solver.step_budget = 1;
  Result<Session> opened = Session::Open(f.program, std::move(opts));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SessionCancelTest, DetachedAndUnexpiredOpensGroundIdentically) {
  Fixture f(CancellableProgram());
  Result<GroundProgram> plain = GroundRelevant(f.program, {});
  ASSERT_TRUE(plain.ok());
  Result<Session> detached = Session::Open(f.program);
  ASSERT_TRUE(detached.ok());
  EXPECT_EQ(detached.value().solver().program().ToString(),
            plain->ToString());

  CancelToken token;
  SessionOptions opts;
  opts.solver.cancel = &token;
  opts.solver.deadline_ns = DeadlineAfterNs(3'600'000'000'000ULL);
  Result<Session> armed = Session::Open(f.program, std::move(opts));
  ASSERT_TRUE(armed.ok());
  EXPECT_EQ(armed.value().solver().program().ToString(), plain->ToString());
}

// --- grounding telemetry ---

TEST(SessionTelemetryTest, OpenPublishesGroundCounters) {
  Fixture f(CancellableProgram());
  obs::Telemetry tele;
  SessionOptions opts;
  opts.solver.telemetry = &tele;
  Result<Session> opened = Session::Open(f.program, std::move(opts));
  ASSERT_TRUE(opened.ok());
  const GroundProgram& gp = opened.value().solver().program();
  obs::MetricsRegistry& m = tele.metrics;
  EXPECT_EQ(m.GetCounter("ground.rules")->value(), gp.rule_count());
  EXPECT_EQ(m.GetCounter("ground.atoms")->value(), gp.atom_count());
  EXPECT_GT(m.GetCounter("ground.join_candidates")->value(), 0u);
  // Each instance is emitted once: no duplicate reaches `AddRule`.
  EXPECT_EQ(m.GetCounter("ground.emitted")->value(), gp.rule_count());
  EXPECT_EQ(m.GetCounter("ground.truncated")->value(), 0u);

  Fixture capped(kTruncatedProgram);
  obs::Telemetry capped_tele;
  SessionOptions capped_opts;
  capped_opts.solver.telemetry = &capped_tele;
  ASSERT_TRUE(Session::Open(capped.program, std::move(capped_opts)).ok());
  EXPECT_EQ(capped_tele.metrics.GetCounter("ground.truncated")->value(), 1u);
}

TEST(SessionTelemetryTest, OpenEmitsGroundRelevantSpan) {
  Fixture f("p :- not q.\n");
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.Clear();
  rec.Enable();
  ASSERT_TRUE(Session::Open(f.program).ok());
  rec.Disable();
  std::ostringstream os;
  rec.WriteChromeTrace(os);
  rec.Clear();
  EXPECT_NE(os.str().find("ground.relevant"), std::string::npos);
}

}  // namespace
}  // namespace gsls
