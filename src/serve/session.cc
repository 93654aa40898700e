#include "serve/session.h"

#include <utility>

#include "obs/metrics.h"
#include "serve/delta.h"

namespace gsls {

namespace {

/// Both modes' reads become answers here: Thm. 4.7's status and Cor. 4.6's
/// level, or `kUnknown` when the pass did not complete or the atom lies in
/// the truncation cone. A direct read (`IncrementalSolver::QueryAnswer`)
/// also carries its cone costs; a serving read carries its epoch.
template <typename Read>
SessionAnswer ToSessionAnswer(const Read& read, SolveOutcome outcome,
                              bool truncated, uint64_t epoch = 0,
                              uint64_t seq = 0) {
  SessionAnswer out;
  out.value = read.value;
  out.outcome = outcome;
  out.truncated = truncated;
  out.true_stage = read.true_stage;
  out.false_stage = read.false_stage;
  if (outcome == SolveOutcome::kCompleted && !truncated) {
    out.status = StatusOfValue(read.value);
    out.level = LevelOfStages(read.value, read.true_stage, read.false_stage);
  }
  out.epoch = epoch;
  out.seq = seq;
  if constexpr (requires { read.cone_atoms; }) {
    out.cone_components = read.cone_components;
    out.resolved_components = read.resolved_components;
    out.memo_hits = read.memo_hits;
    out.cone_atoms = read.cone_atoms;
  }
  return out;
}

}  // namespace

Session::Session(std::unique_ptr<IncrementalSolver> solver,
                 SessionOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.serving) {
    server_solver_ = solver.get();
    server_ = std::make_unique<serve::ServingSolver>(std::move(solver),
                                                     opts_.serve);
    reader_ = server_->RegisterReader();
  } else {
    direct_ = std::move(solver);
  }
}

Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

Result<Session> Session::Open(const Program& program, SessionOptions opts) {
  SolverOptions sopts = opts.solver;
  sopts.compute_levels = opts.compute_levels;
  if (opts.serving && opts.serve.telemetry == nullptr) {
    // One registry serves both the solver's delta.*/query.* channels and
    // the layer's serve.* channels unless the caller split them.
    opts.serve.telemetry = sopts.telemetry;
  }
  CancelCtx cancel(sopts.cancel, sopts.deadline_ns, sopts.step_budget,
                   sopts.fault);
  CancelCtx* ctx = cancel.active() ? &cancel : nullptr;
  GroundingStats stats;
  Result<GroundProgram> gp =
      GroundRelevant(program, opts.grounding, ctx, &stats);
  if (!gp.ok()) return gp.status();
  if (sopts.telemetry != nullptr) {
    obs::MetricsRegistry& m = sopts.telemetry->metrics;
    m.GetCounter("ground.rules")->Add(gp->rule_count());
    m.GetCounter("ground.atoms")->Add(gp->atom_count());
    m.GetCounter("ground.join_candidates")->Add(stats.join_candidates);
    m.GetCounter("ground.emitted")->Add(stats.emitted);
    m.GetCounter("ground.truncated")->Add(stats.truncated);
  }
  auto solver =
      std::make_unique<IncrementalSolver>(std::move(gp.value()), sopts);
  return Session(std::move(solver), std::move(opts));
}

Session Session::Adopt(std::unique_ptr<IncrementalSolver> solver,
                       SessionOptions opts) {
  return Session(std::move(solver), std::move(opts));
}

bool Session::Assert(const Term* fact) {
  if (server_ != nullptr) return server_->Assert(fact) != 0;
  return direct_->Assert(fact);
}

bool Session::Retract(const Term* fact) {
  if (server_ != nullptr) return server_->Retract(fact) != 0;
  return direct_->Retract(fact);
}

Result<RuleId> Session::Assert(const Clause& rule, bool* changed) {
  if (!rule.ground()) {
    return Status::InvalidArgument(
        "Assert(Clause) requires a ground clause: deltas never re-ground");
  }
  if (server_ != nullptr) {
    const bool queued = server_->Assert(rule) != 0;
    if (changed != nullptr) *changed = queued;
    // The id is assigned asynchronously by the writer; the clause itself
    // is the content-addressed handle for `Retract(Clause)`.
    return RuleId{0};
  }
  return serve::AssertClause(*direct_, rule, changed);
}

bool Session::Retract(const Clause& rule) {
  if (server_ != nullptr) return server_->Retract(rule) != 0;
  return serve::RetractClause(*direct_, rule);
}

SessionAnswer Session::Query(const Term* ground_atom) {
  if (server_ != nullptr) {
    uint64_t epoch = 0;
    uint64_t seq = 0;
    serve::SnapshotAnswer sa = server_->Read(reader_, ground_atom, &epoch,
                                             &seq);
    // Only completed passes publish.
    return ToSessionAnswer(sa, SolveOutcome::kCompleted, sa.truncated, epoch,
                           seq);
  }
  const TruncationCone* cone = DirectTruncation();
  const IncrementalSolver::QueryAnswer qa = direct_->QueryAtom(ground_atom);
  return ToSessionAnswer(qa, qa.outcome,
                         cone != nullptr && cone->Contains(ground_atom));
}

SessionAnswer Session::Query(AtomId atom) {
  if (server_ != nullptr) {
    serve::EpochStore::ReadGuard g(server_->epochs(), reader_);
    const serve::SnapshotAnswer sa = g->Query(atom);
    return ToSessionAnswer(sa, SolveOutcome::kCompleted, sa.truncated,
                           g.epoch(), g->seq());
  }
  const TruncationCone* cone = DirectTruncation();
  const IncrementalSolver::QueryAnswer qa = direct_->QueryAtom(atom);
  return ToSessionAnswer(qa, qa.outcome,
                         cone != nullptr && cone->Contains(atom));
}

const TruncationCone* Session::DirectTruncation() {
  if (direct_->program().truncated().empty()) return nullptr;
  const uint64_t deltas = direct_->stats().deltas;
  if (truncation_deltas_ != deltas) {
    truncation_ =
        TruncationCone::Build(direct_->program(), &direct_->disabled_mask());
    truncation_deltas_ = deltas;
  }
  return truncation_.get();
}

void Session::Flush() {
  if (server_ != nullptr) server_->Flush();
}

std::shared_ptr<const serve::Snapshot> Session::SnapshotNow() {
  if (server_ != nullptr) {
    serve::EpochStore::ReadGuard g(server_->epochs(), reader_);
    // Re-acquire shared ownership for the caller: the guard's pin keeps
    // the ring slot alive while we copy the shared_ptr out of it.
    return server_->epochs().SnapshotAt(g.epoch());
  }
  // A snapshot carries no outcome, so an aborted pass's partial model
  // must not be published as if it were exact.
  if (direct_->Model().outcome != SolveOutcome::kCompleted) return nullptr;
  IncrementalSolver::ResolveLog log;
  log.all_atoms = true;
  serve::SnapshotBuilder builder;
  return builder.Build(*direct_, std::move(log), /*epoch=*/0,
                       /*seq=*/direct_->stats().deltas);
}

void Session::SetDeadlineNs(uint64_t deadline_ns) {
  solver().SetDeadlineNs(deadline_ns);
}

void Session::SetStepBudget(uint64_t step_budget) {
  solver().SetStepBudget(step_budget);
}

}  // namespace gsls
