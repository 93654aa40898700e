#include "solver/incremental.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <ostream>
#include <utility>

#include "obs/trace.h"
#include "solver/component_eval.h"
#include "util/strings.h"

namespace gsls {

std::string IncrementalStats::ToString() const {
  return StrCat("deltas=", deltas, " rule_deltas=", rule_deltas,
                " full=", full_solves,
                " incremental=", incremental_solves,
                " rebuilds=", graph_rebuilds,
                " resolved=", components_resolved,
                " reused=", components_reused, " cutoffs=", cone_cutoffs,
                " queries=", queries, " fastpaths=", query_fastpaths,
                " aborted=", aborted_passes, " resumed=", resumed_passes);
}

IncrementalSolver::IncrementalSolver(GroundProgram gp, SolverOptions opts)
    : gp_(std::move(gp)), opts_(opts),
      threads_(solver::ResolveThreadCount(opts.num_threads)) {
  disabled_.assign(gp_.rule_count(), 0);
  if (opts_.telemetry != nullptr) {
    obs::MetricsRegistry& m = opts_.telemetry->metrics;
    tele_.delta_latency_us = m.GetHistogram("incremental.delta.latency_us");
    tele_.dirty_components =
        m.GetHistogram("incremental.delta.dirty_components");
    tele_.cone_components = m.GetHistogram("incremental.delta.cone_components");
    tele_.resolved_components =
        m.GetHistogram("incremental.delta.resolved_components");
    tele_.resolved_atoms = m.GetHistogram("incremental.delta.resolved_atoms");
    tele_.window_components = m.GetHistogram("condense.window_components");
    tele_.full_latency_us = m.GetHistogram("incremental.full.latency_us");
    tele_.diag = SolverDiagnostics::InternChannels(opts_.telemetry);
    for (const GaugeSource& g : GaugeSources()) {
      tele_.gauges.push_back(m.GetGauge(g.name));
    }
    tele_.query_latency_us = m.GetHistogram("query.latency_us");
    tele_.query_cone_components = m.GetHistogram("query.cone_components");
    tele_.query_cone_atoms = m.GetHistogram("query.cone_atoms");
    tele_.query_resolved_components =
        m.GetHistogram("query.resolved_components");
    tele_.query_memo_hits = m.GetHistogram("query.memo_hits");
    tele_.cancel_aborts = m.GetCounter("cancel.aborts");
    tele_.cancel_deadline_exceeded = m.GetCounter("cancel.deadline_exceeded");
    tele_.cancel_resumes = m.GetCounter("cancel.resumes");
    tele_.cancel_checkpoints = m.GetCounter("cancel.checkpoints");
    tele_.cancel_resume_components =
        m.GetHistogram("cancel.resume_components");
    tele_.interior_seeded_flood_atoms =
        m.GetHistogram("interior.seeded_flood_atoms");
    tele_.interior_pk_region_components =
        m.GetHistogram("interior.pk_region_components");
  }
}

std::span<const IncrementalSolver::GaugeSource>
IncrementalSolver::GaugeSources() {
  using S = IncrementalSolver;
  // Condensation rows read through `cond`: every publish follows a pass,
  // and every pass builds the graph first.
  static constexpr auto cond = [](const S& s) -> const auto& {
    return s.cond_->stats();
  };
  static constexpr GaugeSource kRows[] = {
      {"program.atoms",
       [](const S& s) -> int64_t { return s.gp_.atom_count(); }},
      {"program.rules",
       [](const S& s) -> int64_t { return s.gp_.rule_count(); }},
      {"incremental.deltas",
       [](const S& s) -> int64_t { return s.stats_.deltas; }},
      {"incremental.full_solves",
       [](const S& s) -> int64_t { return s.stats_.full_solves; }},
      {"incremental.incremental_solves",
       [](const S& s) -> int64_t { return s.stats_.incremental_solves; }},
      {"incremental.components_resolved",
       [](const S& s) -> int64_t { return s.stats_.components_resolved; }},
      {"incremental.components_reused",
       [](const S& s) -> int64_t { return s.stats_.components_reused; }},
      {"incremental.cone_cutoffs",
       [](const S& s) -> int64_t { return s.stats_.cone_cutoffs; }},
      {"query.count", [](const S& s) -> int64_t { return s.stats_.queries; }},
      {"query.fastpaths",
       [](const S& s) -> int64_t { return s.stats_.query_fastpaths; }},
      {"interior.warm_hits",
       [](const S& s) -> int64_t { return s.diag_.warm_hits; }},
      {"interior.cold_fallbacks",
       [](const S& s) -> int64_t { return s.diag_.warm_cold_fallbacks; }},
      {"query.memo.hits",
       [](const S& s) -> int64_t { return s.memo_.stats().hits; }},
      {"query.memo.misses",
       [](const S& s) -> int64_t { return s.memo_.stats().misses; }},
      {"query.memo.invalidations",
       [](const S& s) -> int64_t { return s.memo_.stats().invalidations; }},
      {"graph.components",
       [](const S& s) -> int64_t {
         return s.cond_->graph().component_count();
       }},
      {"condense.inserts",
       [](const S& s) -> int64_t { return cond(s).inserts; }},
      {"condense.removals",
       [](const S& s) -> int64_t { return cond(s).removals; }},
      {"condense.windows",
       [](const S& s) -> int64_t { return cond(s).windows; }},
      {"condense.window_atoms",
       [](const S& s) -> int64_t { return cond(s).window_atoms; }},
      {"condense.window_us",
       [](const S& s) -> int64_t { return cond(s).window_ns / 1000; }},
      {"condense.merges", [](const S& s) -> int64_t { return cond(s).merges; }},
      {"condense.splits", [](const S& s) -> int64_t { return cond(s).splits; }},
      {"condense.relabels",
       [](const S& s) -> int64_t { return cond(s).relabels; }},
  };
  return kRows;
}

CancelCtx* IncrementalSolver::ConfigureCancel() {
  // Re-read the options every time: the Set* mutators (and the engines'
  // per-request deadlines) change them between passes.
  cancel_ctx_.set_token(opts_.cancel);
  cancel_ctx_.set_deadline_ns(opts_.deadline_ns);
  cancel_ctx_.set_step_budget(opts_.step_budget);
  cancel_ctx_.set_fault(opts_.fault);
  return cancel_ctx_.active() ? &cancel_ctx_ : nullptr;
}

CancelCtx* IncrementalSolver::BeginCancelPass() {
  CancelCtx* ctx = ConfigureCancel();
  if (ctx != nullptr) ctx->BeginPass();
  return ctx;
}

void IncrementalSolver::NoteOutcome(CancelCtx* cancel, uint64_t resolved) {
  const bool aborted = cancel != nullptr && cancel->aborted();
  if (opts_.telemetry != nullptr && tele_.cancel_checkpoints != nullptr) {
    if (cancel != nullptr) tele_.cancel_checkpoints->Add(cancel->steps());
    if (aborted) {
      tele_.cancel_aborts->Add(1);
      if (cancel->outcome() == SolveOutcome::kDeadlineExceeded) {
        tele_.cancel_deadline_exceeded->Add(1);
      }
    } else if (last_pass_aborted_) {
      tele_.cancel_resumes->Add(1);
      tele_.cancel_resume_components->Record(resolved);
    }
  }
  if (aborted) {
    ++stats_.aborted_passes;
    last_pass_aborted_ = true;
  } else if (last_pass_aborted_) {
    ++stats_.resumed_passes;
    last_pass_aborted_ = false;
  }
}

bool IncrementalSolver::Assert(const Term* fact) {
  return AssertAtom(gp_.InternAtom(fact));
}

bool IncrementalSolver::Retract(const Term* fact) {
  std::optional<AtomId> id = gp_.FindAtom(fact);
  if (!id.has_value()) return false;
  return RetractAtom(*id);
}

bool IncrementalSolver::AssertAtom(AtomId atom) {
  assert(atom < gp_.atom_count());
  std::optional<RuleId> unit = gp_.FindUnitRule(atom);
  if (unit.has_value()) {
    if (RuleEnabled(*unit)) return false;  // already an enabled fact
    disabled_[*unit] = 0;
    RecordRuleFlip(*unit);
  } else {
    gp_.AddRule(GroundRule{atom, {}, {}});
    disabled_.resize(gp_.rule_count(), 0);
  }
  MarkDirty(atom);
  return true;
}

bool IncrementalSolver::RetractAtom(AtomId atom) {
  if (atom >= gp_.atom_count()) return false;
  std::optional<RuleId> unit = gp_.FindUnitRule(atom);
  if (!unit.has_value() || !RuleEnabled(*unit)) return false;
  disabled_[*unit] = 1;
  RecordRuleFlip(*unit);
  MarkDirty(atom);
  return true;
}

bool IncrementalSolver::HasFact(AtomId atom) const {
  std::optional<RuleId> unit = gp_.FindUnitRule(atom);
  return unit.has_value() && RuleEnabled(*unit);
}

RuleId IncrementalSolver::AssertRule(GroundRule rule, bool* changed) {
  if (rule.pos.empty() && rule.neg.empty()) {
    // Unit rules are fact deltas: same path, same invariants (no edges).
    AtomId head = rule.head;
    bool did = AssertAtom(head);
    if (changed != nullptr) *changed = did;
    return *gp_.FindUnitRule(head);
  }
  size_t rules_before = gp_.rule_count();
  RuleId id = gp_.AddRule(std::move(rule));
  bool is_new = gp_.rule_count() != rules_before;
  if (!is_new && RuleEnabled(id)) {
    if (changed != nullptr) *changed = false;
    return id;  // the identical rule is already enabled
  }
  disabled_.resize(gp_.rule_count(), 0);
  disabled_[id] = 0;  // re-enable when it was a retracted duplicate
  // A new rule fails its component's warm binding; a re-enabled one is a
  // mask flip the warm entry patches.
  if (!is_new) RecordRuleFlip(id);
  ++stats_.rule_deltas;
  MarkDirty(gp_.rules()[id].head);
  if (cond_ != nullptr) {
    EnsureGraph();  // cover atoms interned since the last repair
    ApplyRepair(cond_->InsertRule(gp_, &disabled_, id, ConfigureCancel()));
  }
  if (changed != nullptr) *changed = true;
  return id;
}

RuleId IncrementalSolver::AssertRule(const Term* head,
                                     std::span<const Term* const> pos,
                                     std::span<const Term* const> neg,
                                     bool* changed) {
  GroundRule rule;
  rule.head = gp_.InternAtom(head);
  rule.pos.reserve(pos.size());
  rule.neg.reserve(neg.size());
  for (const Term* t : pos) rule.pos.push_back(gp_.InternAtom(t));
  for (const Term* t : neg) rule.neg.push_back(gp_.InternAtom(t));
  return AssertRule(std::move(rule), changed);
}

bool IncrementalSolver::RetractRule(RuleId r) {
  if (r >= gp_.rule_count() || !RuleEnabled(r)) return false;
  const GroundRule& rule = gp_.rules()[r];
  if (rule.pos.empty() && rule.neg.empty()) return RetractAtom(rule.head);
  disabled_.resize(gp_.rule_count(), 0);
  disabled_[r] = 1;
  RecordRuleFlip(r);
  ++stats_.rule_deltas;
  MarkDirty(rule.head);
  if (cond_ != nullptr) {
    EnsureGraph();
    ApplyRepair(cond_->RemoveRule(gp_, &disabled_, r, ConfigureCancel()));
  }
  return true;
}

void IncrementalSolver::MarkDirty(AtomId atom) {
  ++stats_.deltas;
  dirty_.push_back(atom);
}

void IncrementalSolver::ApplyRepair(const CondensationRepair& rep) {
  const AtomDependencyGraph& g = cond_->graph();
  // Ids are stable: the memo only drops the repair's dirty components —
  // but only once queries made it track anything.
  if (memo_.size() != 0) memo_.ApplyRepair(rep);
  if (rep.recondensed && tele_.window_components != nullptr) {
    tele_.window_components->Record(rep.written);
    if (rep.pk_region_components != 0) {
      tele_.interior_pk_region_components->Record(rep.pk_region_components);
    }
  }
  if (rep.recondensed) DropStaleWarm();
  // Components are marked through a representative atom, like every
  // other pending marker (`dirty_` is atom-keyed).
  for (uint32_t c : rep.dirty) {
    std::span<const AtomId> atoms = g.Atoms(c);
    if (!atoms.empty()) dirty_.push_back(atoms[0]);
  }
}

void IncrementalSolver::DropStaleWarm() {
  if (warm_.empty()) return;
  // Warm interior state is keyed by representative atom, so entries whose
  // key no longer leads its component (or whose component changed size)
  // are provably stale — discard them now rather than leaking them. Same-
  // key same-size survivors are re-checked atom-for-atom by
  // `BindingValid` on their next touch.
  const AtomDependencyGraph& g = cond_->graph();
  std::lock_guard<std::mutex> lock(warm_mu_);
  std::erase_if(warm_, [&](const auto& kv) {
    std::span<const AtomId> atoms = g.Atoms(g.ComponentOf(kv.first));
    bool keep = !atoms.empty() && atoms[0] == kv.first &&
                atoms.size() == kv.second->atom_count();
    if (!keep) ++diag_.warm_cold_fallbacks;
    return !keep;
  });
  // A recondensation may have moved a survivor's component id.
  has_warm_.assign(g.id_bound(), 0);
  for (const auto& kv : warm_) has_warm_[g.ComponentOf(kv.first)] = 1;
}

void IncrementalSolver::ClearWarm() {
  std::lock_guard<std::mutex> lock(warm_mu_);
  if (warm_.empty()) return;  // then no flag is set either
  warm_.clear();
  std::fill(has_warm_.begin(), has_warm_.end(), 0);
}

bool IncrementalSolver::HasWarm(uint32_t c) {
  return c < has_warm_.size() &&
         std::atomic_ref<uint8_t>(has_warm_[c]).load(
             std::memory_order_relaxed) != 0;
}

template <typename Fn>
void IncrementalSolver::WithWarmEntry(uint32_t c, Fn&& fn) {
  std::lock_guard<std::mutex> lock(warm_mu_);
  auto it = warm_.find(cond_->graph().Atoms(c)[0]);
  if (it != warm_.end()) fn(*it->second);
}

void IncrementalSolver::RecordRuleFlip(RuleId r) {
  if (warm_.empty()) return;
  const AtomDependencyGraph& g = cond_->graph();
  const AtomId head = gp_.rules()[r].head;
  if (head >= g.atom_count()) return;  // a new atom: a singleton, never warm
  const uint32_t c = g.ComponentOf(head);
  if (!HasWarm(c)) return;
  WithWarmEntry(c, [r](solver::WarmComponent& w) { w.RecordRuleFlip(r); });
}

void IncrementalSolver::EnsureGraph() {
  if (cond_ == nullptr) {
    cond_ = std::make_unique<DynamicCondensation>(gp_, &disabled_);
    return;
  }
  if (cond_->graph().atom_count() == gp_.atom_count()) return;
  // Atoms interned since the last repair become singleton components — no
  // rebuild. They enter the tape undefined, so their components must
  // solve once (to false, until some delta derives them): mark them dirty.
  ++stats_.graph_rebuilds;
  for (AtomId a = static_cast<AtomId>(cond_->graph().atom_count());
       a < gp_.atom_count(); ++a) {
    dirty_.push_back(a);
  }
  cond_->AddAtoms(gp_.atom_count());
}

void IncrementalSolver::EnsurePool() {
  if (pool_ == nullptr) pool_ = std::make_unique<WorkStealingPool>(threads_);
}

void IncrementalSolver::SyncMirror(uint32_t comp) {
  // SyncMirror runs for exactly the components a pass (re)finalized, so it
  // doubles as the resolve log's append point (always on the owner thread:
  // the cone pass calls it after its executor finished).
  const bool log = resolve_log_enabled_ && !resolve_log_.all_atoms;
  for (AtomId a : cond_->graph().Atoms(comp)) {
    if (log) {
      resolve_log_.atoms.push_back(a);
    }
    tape_.CopyAtomTo(a, &model_.model);
    if (opts_.compute_levels) {
      model_.true_stage[a] = stape_.true_stage[a];
      model_.false_stage[a] = stape_.false_stage[a];
    }
  }
}

const WfsModel& IncrementalSolver::Model() {
  solver::StageTape* stages = opts_.compute_levels ? &stape_ : nullptr;
  if (!solved_) {
    GSLS_TRACE_SPAN("solve.full", gp_.atom_count());
    const uint64_t t0 = opts_.telemetry != nullptr ? obs::NowNs() : 0;
    // The full pass rewrites the tape without reporting drift to warm
    // entries (which a query pass may have built), so none may survive it.
    ClearWarm();
    EnsureGraph();
    if (cond_->repaired()) {
      // The full solve walks ids in ascending order, which only a fresh
      // build guarantees to be a dependency order.
      cond_->Rebuild(gp_, &disabled_);
      memo_.Reset(cond_->graph().id_bound());
    }
    CancelCtx* cancel = BeginCancelPass();
    const uint64_t rounds_before = diag_.alternating_rounds;
    const uint32_t ncomp = cond_->graph().component_count();
    // Grown before the pass so per-component validity marks are in range
    // even when the pass aborts partway.
    memo_.Grow(ncomp);
    if (threads_ > 1) EnsurePool();
    std::vector<uint8_t> finalized;
    const bool aborted = !solver::SolveAllComponents(
        gp_, cond_->graph(), &disabled_, threads_ > 1 ? pool_.get() : nullptr,
        &tape_, stages, &diag_, cancel,
        cancel != nullptr ? &finalized : nullptr);
    if (aborted) {
      // Abort bookkeeping: finalized components are exact (memo-valid);
      // the rest kept their all-undefined reset state and queue — by
      // stable representative atom — for the next pass to resume.
      for (uint32_t c = 0; c < ncomp; ++c) {
        if (finalized[c] != 0) {
          memo_.MarkValid(c);
        } else {
          memo_.Invalidate(c);
          stale_reps_.push_back(cond_->graph().Atoms(c)[0]);
        }
      }
    }
    model_ = solver::ToWfsModel(tape_, stages,
                                diag_.alternating_rounds - rounds_before,
                                cancel);
    // `solved_` even on an abort: the finalized components carry exact
    // values (anytime semantics), and the next `Model()` resumes through
    // the incremental branch — exactly the queued remainder, never a
    // second from-scratch pass.
    solved_ = true;
    dirty_.clear();
    // The full branch writes the tape wholesale (no per-component
    // SyncMirror), so the resolve log can only be conservative here.
    if (resolve_log_enabled_) {
      resolve_log_.all_atoms = true;
    }
    if (!aborted) {
      // Everything just finalized: the query memo serves every component.
      memo_.MarkAllValid();
      stale_reps_.clear();
    }
    ++stats_.full_solves;
    NoteOutcome(cancel, ncomp - (aborted ? stale_reps_.size() : 0));
    if (opts_.telemetry != nullptr) {
      tele_.full_latency_us->Record((obs::NowNs() - t0) / 1000);
      PublishTelemetry();
    }
  } else if (!dirty_.empty() || !stale_reps_.empty()) {
    GSLS_TRACE_SPAN("solve.delta", stats_.incremental_solves);
    const uint64_t t0 = opts_.telemetry != nullptr ? obs::NowNs() : 0;
    EnsureGraph();
    CancelCtx* cancel = BeginCancelPass();
    GrowTapes();
    const AtomDependencyGraph& graph = cond_->graph();
    const uint32_t ncomp = graph.component_count();
    memo_.Grow(graph.id_bound());
    ++stats_.incremental_solves;
    const uint64_t rounds_before = diag_.alternating_rounds;
    const uint64_t warm_hits_before = diag_.warm_hits;
    const uint64_t seeded_flood_before = diag_.seeded_flood_sizes.sum;
    // The up-cone seeds: delta-dirty atoms and the components query passes
    // left stale (invalidated out-of-cone dependents of re-solved
    // changes) are both "re-solve me, my tape values may be wrong".
    cone_.seeds.clear();
    for (AtomId a : dirty_) cone_.seeds.push_back(graph.ComponentOf(a));
    for (AtomId a : stale_reps_) cone_.seeds.push_back(graph.ComponentOf(a));
    dirty_.clear();
    stale_reps_.clear();
    const ConePassCounts n = RunConePass(/*bounded=*/false, cancel);
    stats_.components_reused += ncomp - n.resolved;
    // Like a fresh solve, `iterations` reports this pass's alternating
    // rounds, not a lifetime total (`diagnostics()` keeps the cumulative).
    model_.iterations =
        static_cast<uint32_t>(diag_.alternating_rounds - rounds_before);
    if (cancel == nullptr || !cancel->aborted()) {
      // The pass re-solved every pending component and chased every
      // actual change; the tape is the full model again, so the memo is
      // too. (On an abort the pass already marked exactly the finalized
      // components valid and queued the rest.)
      memo_.MarkAllValid();
    }
    model_.outcome =
        cancel != nullptr ? cancel->outcome() : SolveOutcome::kCompleted;
    NoteOutcome(cancel, n.resolved);
    if (opts_.telemetry != nullptr) {
      tele_.delta_latency_us->Record((obs::NowNs() - t0) / 1000);
      tele_.dirty_components->Record(n.seeds);
      tele_.cone_components->Record(n.scheduled);
      tele_.resolved_components->Record(n.resolved);
      tele_.resolved_atoms->Record(n.resolved_atoms);
      if (diag_.warm_hits != warm_hits_before) {
        // What this pass's warm re-solves actually flooded, summed over
        // the pass — the per-delta "how much of the SCC did the seed
        // touch" signal (per-resolve sizes live in the diagnostics
        // histogram; per-pass is the delta-latency-aligned view).
        tele_.interior_seeded_flood_atoms->Record(
            diag_.seeded_flood_sizes.sum - seeded_flood_before);
      }
      PublishTelemetry();
    }
  }
  return model_;
}

void IncrementalSolver::GrowTapes() {
  model_.model.Resize(gp_.atom_count());
  tape_.Resize(gp_.atom_count());
  if (opts_.compute_levels) {
    stape_.Resize(gp_.atom_count());
    model_.true_stage.resize(gp_.atom_count(), 0);
    model_.false_stage.resize(gp_.atom_count(), 0);
  }
}

void IncrementalSolver::PublishTelemetry() {
  if (opts_.telemetry == nullptr) return;
  // Interned-pointer stores only (see TelemetryChannels): this runs after
  // every delta, so it must not touch the registry's mutexed name maps.
  diag_.PublishTo(tele_.diag);
  std::span<const GaugeSource> rows = GaugeSources();
  for (size_t i = 0; i < rows.size(); ++i) {
    tele_.gauges[i]->Set(rows[i].read(*this));
  }
}

void IncrementalSolver::DumpTelemetry(std::ostream& os) const {
  os << "incremental: " << stats_.ToString() << "\n";
  os << "diagnostics: " << diag_.ToString() << "\n";
  os << "query memo: " << memo_.stats().ToString() << "\n";
  if (cond_ != nullptr) {
    os << "condensation: " << cond_->stats().ToString() << "\n";
  }
  if (opts_.telemetry != nullptr) opts_.telemetry->metrics.WriteTable(os);
}

TruthValue IncrementalSolver::ValueOf(const Term* ground_atom) {
  std::optional<AtomId> id = gp_.FindAtom(ground_atom);
  if (!id.has_value()) return TruthValue::kFalse;
  return Model().model.Value(*id);
}

WfsModel IncrementalSolver::SolveFresh(SolverDiagnostics* diag) const {
  SolverDiagnostics scratch;
  if (diag == nullptr) diag = &scratch;
  *diag = SolverDiagnostics{};
  // Masked construction: the baseline condenses the enabled subprogram,
  // exactly what a non-incremental caller solving the mutated program
  // would build (and what the repaired condensation must agree with).
  AtomDependencyGraph graph(gp_, &disabled_);
  solver::TruthTape values;
  solver::StageTape stages;
  solver::StageTape* levels = opts_.compute_levels ? &stages : nullptr;
  solver::SolveAllComponents(gp_, graph, &disabled_, /*pool=*/nullptr,
                             &values, levels, diag);
  return solver::ToWfsModel(values, levels, diag->alternating_rounds,
                            /*cancel=*/nullptr);
}

bool IncrementalSolver::SolveWarmComponent(uint32_t c,
                                           solver::StageTape* stages,
                                           SolverDiagnostics* diag,
                                           CancelCtx* cancel) {
  const AtomDependencyGraph& graph = cond_->graph();
  std::span<const AtomId> atoms = graph.Atoms(c);
  const AtomId rep = atoms[0];
  solver::WarmComponent* warm = nullptr;
  {
    std::lock_guard<std::mutex> lock(warm_mu_);
    auto it = warm_.find(rep);
    if (it != warm_.end()) warm = it->second.get();
  }
  // Resume only an entry that still describes this component and whose
  // tape holds the quiescent model it recorded. One that no longer does
  // (recondensed membership, new rules targeting the component, or an
  // out-of-band solve moved the tape under it) is discarded, never
  // trusted; a fresh entry solves from an all-undefined component.
  std::unique_ptr<solver::WarmComponent> fresh;
  if (warm == nullptr || !warm->BindingValid(gp_, graph, c, tape_)) {
    if (warm != nullptr) DropWarm(c, rep, diag);
    fresh = std::make_unique<solver::WarmComponent>();
    warm = fresh.get();
    for (AtomId a : atoms) tape_.SetUndefined(a);
  }
  if (!solver::SolveComponent(gp_, graph, c, &disabled_, &tape_, stages, diag,
                              cancel, warm)) {
    // An aborted entry is inconsistent (partial undo or flood) and must
    // not be resumed against: the next touch rebuilds from scratch.
    if (fresh == nullptr) DropWarm(c, rep, diag);
    return false;
  }
  if (fresh != nullptr) {
    std::lock_guard<std::mutex> lock(warm_mu_);
    warm_[rep] = std::move(fresh);
    std::atomic_ref<uint8_t>(has_warm_[c]).store(1,
                                                 std::memory_order_relaxed);
  }
  return true;
}

void IncrementalSolver::DropWarm(uint32_t c, AtomId rep,
                                 SolverDiagnostics* diag) {
  ++diag->warm_cold_fallbacks;
  std::lock_guard<std::mutex> lock(warm_mu_);
  warm_.erase(rep);
  std::atomic_ref<uint8_t>(has_warm_[c]).store(0, std::memory_order_relaxed);
}

/// The one copy of the per-component delta step, shared by both executors
/// of the cone pass: snapshot old values, re-solve (warm or cold), and
/// invoke `flag(head_component)` for every component owning a rule that
/// mentions an atom whose value moved. Returns whether anything moved.
///
/// With `stages` non-null the snapshot/compare covers the stage levels
/// too: a delta can advance a literal's stage without flipping any truth
/// value (e.g. asserting an already-derived atom as a fact pulls its stage
/// down to 1), and dependents' stages must follow — cutting the cone on
/// value equality alone would leave them stale.
///
/// A cancellation abort mid-solve restores the snapshot verbatim ("fully
/// old or fully new"), sets `*aborted`, runs no flagging, and returns
/// false — the caller queues the component for the resume pass.
template <typename FlagFn>
bool IncrementalSolver::ResolveComponentDelta(
    uint32_t c, solver::StageTape* stages, std::vector<TruthValue>* old_vals,
    std::vector<uint32_t>* old_stages, SolverDiagnostics* diag,
    CancelCtx* cancel, bool* aborted, FlagFn&& flag) {
  const AtomDependencyGraph& graph = cond_->graph();
  std::span<const AtomId> atoms = graph.Atoms(c);
  old_vals->clear();
  for (AtomId a : atoms) old_vals->push_back(tape_.Value(a));
  if (stages != nullptr) {
    old_stages->clear();
    for (AtomId a : atoms) {
      old_stages->push_back(stages->true_stage[a]);
      old_stages->push_back(stages->false_stage[a]);
    }
  }
  // Warm/cold dispatch is by component *shape* only (`Eligible`), never
  // by schedule, so every thread count takes identical paths and the
  // models stay bit-identical. A warm resume reads the pre-delta tape (no
  // reset — the undo is the point); every other solve resets first.
  bool ok;
  if (solver::WarmComponent::Eligible(graph, c, opts_.warm_min_atoms)) {
    ok = SolveWarmComponent(c, stages, diag, cancel);
  } else {
    for (AtomId a : atoms) tape_.SetUndefined(a);
    ok = solver::SolveComponent(gp_, graph, c, &disabled_, &tape_, stages,
                                diag, cancel);
  }
  if (!ok) {
    // The failed solve left the atoms all-undefined; the snapshot puts
    // the pre-delta values back. Stages were never touched
    // (reconstruction runs only after values finalize), so they still
    // hold the old levels — consistent with the restored values.
    for (size_t i = 0; i < atoms.size(); ++i) {
      tape_.SetValue(atoms[i], (*old_vals)[i]);
    }
    *aborted = true;
    return false;
  }

  bool changed = false;
  for (size_t i = 0; i < atoms.size(); ++i) {
    const AtomId a = atoms[i];
    const bool value_moved = tape_.Value(a) != (*old_vals)[i];
    bool moved = value_moved;
    if (!moved && stages != nullptr) {
      moved = stages->true_stage[a] != (*old_stages)[2 * i] ||
              stages->false_stage[a] != (*old_stages)[2 * i + 1];
    }
    if (!moved) continue;
    changed = true;
    // Retracted rules stay in the occurrence index; their heads do not
    // depend on this atom anymore, so only enabled rules flag. A value
    // move is recorded into every warm dependent through *every*
    // occurrence, retracted rules included (see
    // `WarmComponent::RecordExternalMove`); consecutive occurrences in one
    // component record once.
    uint32_t recorded = c;
    solver::ForEachOccurrence(
        gp_, graph, &disabled_, a, c, [&](uint32_t hc, bool enabled) {
          if (enabled) flag(hc);
          if (value_moved && hc != recorded && HasWarm(hc)) {
            recorded = hc;
            WithWarmEntry(hc, [a](solver::WarmComponent& w) {
              w.RecordExternalMove(a);
            });
          }
        });
  }
  return changed;
}

void IncrementalSolver::FoldDirtyIntoPending() {
  if (dirty_.empty()) return;
  const AtomDependencyGraph& graph = cond_->graph();
  // Unconditional pushes: a component can be invalid without being
  // pending (never solved), and `Invalidate`'s return value cannot tell
  // those apart.
  // Duplicates are harmless — consumers dedupe by component.
  for (AtomId a : dirty_) {
    memo_.Invalidate(graph.ComponentOf(a));
    stale_reps_.push_back(a);
  }
  dirty_.clear();
}

void IncrementalSolver::QueueStale(uint32_t comp) {
  memo_.Invalidate(comp);
  // By representative atom, like ApplyRepair: a later merge may free
  // `comp` before anything consumes this.
  stale_reps_.push_back(cond_->graph().Atoms(comp)[0]);
}

namespace {

/// One executor lane of a cone pass, cache-line padded: the components it
/// finalized (mirrored after the pass), the non-members its re-solves
/// flagged (queued after the pass — the memo is not thread-safe), and
/// snapshot scratch. `diag` is the private accumulator of a pool worker;
/// the inline lane writes the solver's diagnostics directly.
struct alignas(64) ConeWorker {
  SolverDiagnostics diag;
  std::vector<uint32_t> resolved;
  std::vector<uint32_t> outside;
  uint64_t cutoffs = 0;
  std::vector<TruthValue> old_vals;
  std::vector<uint32_t> old_stages;
};

}  // namespace

IncrementalSolver::ConePassCounts IncrementalSolver::RunConePass(
    bool bounded, CancelCtx* cancel) {
  const AtomDependencyGraph& graph = cond_->graph();
  solver::StageTape* stages = opts_.compute_levels ? &stape_ : nullptr;
  std::vector<uint32_t>& seeds = cone_.seeds;
  std::vector<uint32_t>& members = cone_.members;
  std::vector<uint32_t>& slot = cone_.slot;
  std::vector<uint8_t>& owed = cone_.owed;
  cone_.Fit(graph.id_bound());
  // Sized here, on the owner: workers store into it.
  if (has_warm_.size() < graph.id_bound()) {
    has_warm_.resize(graph.id_bound(), 0);
  }
  ConePassCounts n;
  std::erase_if(seeds, [&](uint32_t c) { return std::exchange(owed[c], 1); });
  n.seeds = seeds.size();

  // The pool pays a release per member, the heap only per component whose
  // inputs moved: a single-seed pass — the latency-critical streaming
  // case — always runs inline; wider passes have the width a pool can use.
  const bool pool = threads_ > 1 && seeds.size() > 1;
  std::vector<ConeWorker> workers(1);
  if (pool) {
    EnsurePool();
    workers.resize(pool_->size());
    if (!bounded) {
      // The up-cone's members: everything reachable from the seeds in the
      // condensation DAG. Flags go to DAG successors, so they stay inside.
      members = seeds;
      for (uint32_t c : members) slot[c] = 1;
      for (size_t i = 0; i < members.size(); ++i) {
        solver::ForEachSuccessor(gp_, graph, &disabled_, members[i],
                                 [&](uint32_t s) {
                                   if (slot[s] == 0) {
                                     slot[s] = 1;
                                     members.push_back(s);
                                   }
                                 });
      }
      for (uint32_t i = 0; i < members.size(); ++i) slot[members[i]] = i + 1;
    }
    // `owed` entries are touched through atomic_ref while workers run:
    // several predecessors may flag one member concurrently. Relaxed is
    // enough — a member reads its flag only after the acq_rel release
    // edge of every predecessor in the shared scheduler. A member waits
    // only for its member predecessors (everything else is final).
    auto owe = [&](uint32_t c) { return std::atomic_ref<uint8_t>(owed[c]); };
    solver::RunReadyReleaseSchedule(
        pool_.get(), gp_, graph, &disabled_,
        static_cast<uint32_t>(members.size()),
        [&](uint32_t i) { return members[i]; },
        [&](uint32_t s) {
          return slot[s] != 0 ? slot[s] - 1 : solver::kNoScheduleSlot;
        },
        [&](unsigned worker, uint32_t c) {
          if (owe(c).load(std::memory_order_relaxed) == 0) {
            return true;  // nothing moved below: release onwards
          }
          ConeWorker& w = workers[worker];
          bool aborted = false;
          bool changed = ResolveComponentDelta(
              c, stages, &w.old_vals, &w.old_stages, &w.diag, cancel,
              &aborted, [&](uint32_t hc) {
                if (slot[hc] != 0) {
                  owe(hc).store(1, std::memory_order_relaxed);
                } else {
                  w.outside.push_back(hc);
                }
              });
          if (aborted) return false;  // rolled back; successors unreleased
          owe(c).store(0, std::memory_order_relaxed);
          w.resolved.push_back(c);
          if (!changed) ++w.cutoffs;
          return true;
        });
    for (ConeWorker& w : workers) diag_.MergeFrom(w.diag);
    seeds.clear();  // from here on: what the pass still owes
    for (uint32_t c : members) {
      if (owed[c] != 0) seeds.push_back(c);
    }
    n.scheduled = members.size();
  } else {
    // Min-heap over component labels (= dependency order): each re-solve
    // reads final lower values, including the ones this pass produced,
    // and a flagged dependent always has a larger label than its flagger,
    // so a popped component is never pushed again. What is left on the
    // heap when a checkpoint stops the pass is what it still owes.
    ConeWorker& w = workers[0];
    std::vector<uint32_t>& heap = seeds;
    auto later = [&](uint32_t x, uint32_t y) {
      return graph.Label(x) > graph.Label(y);
    };
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const uint32_t c = heap.back();
      heap.pop_back();
      bool aborted = false;
      bool changed = ResolveComponentDelta(
          c, stages, &w.old_vals, &w.old_stages, &diag_, cancel, &aborted,
          [&](uint32_t hc) {
            if (bounded && slot[hc] == 0) {
              w.outside.push_back(hc);
            } else if (owed[hc] == 0) {
              owed[hc] = 1;
              heap.push_back(hc);
              std::push_heap(heap.begin(), heap.end(), later);
            }
          });
      if (aborted) {
        heap.push_back(c);  // rolled back; still owed
        break;
      }
      owed[c] = 0;
      w.resolved.push_back(c);
      if (!changed) ++w.cutoffs;
    }
    n.scheduled = w.resolved.size();
  }

  for (ConeWorker& w : workers) {
    stats_.cone_cutoffs += w.cutoffs;
    for (uint32_t c : w.resolved) {
      ++n.resolved;
      n.resolved_atoms += graph.Atoms(c).size();
      memo_.MarkValid(c);
      SyncMirror(c);
    }
    // Flagged non-members: their inputs moved, so they are stale now.
    // Pushed unconditionally (a component can be invalid without being
    // queued — never solved), deduped per pass through `owed`.
    for (uint32_t hc : w.outside) {
      if (owed[hc] == 0) {
        owed[hc] = 1;
        QueueStale(hc);
      }
    }
  }
  stats_.components_resolved += n.resolved;
  // A stopped pass leaves what it still owed — seeded or flagged, not
  // finalized — to the next pass: the rolled-back component and every
  // owed component after it. Components it never flagged saw no input
  // move, so their memo entries stand.
  for (uint32_t c : seeds) {
    owed[c] = 0;
    QueueStale(c);
  }
  for (ConeWorker& w : workers) {
    for (uint32_t hc : w.outside) owed[hc] = 0;
  }
  for (uint32_t c : members) slot[c] = 0;
  members.clear();
  seeds.clear();
  return n;
}

void IncrementalSolver::SolveDownCone(AtomId atom, QueryAnswer* out,
                                      CancelCtx* cancel) {
  const AtomDependencyGraph& graph = cond_->graph();
  std::vector<uint32_t>& cone = cone_.members;
  std::vector<uint32_t>& slot = cone_.slot;
  cone_.Fit(graph.id_bound());

  // The down-cone: every component the query's truth can depend on,
  // gathered by walking body atoms of enabled rules for each member atom
  // (the condensation edges, reversed). The walk cannot prune at
  // valid components: validity is conditional on everything below being
  // re-solved first (see solver/component_memo.h), so a stale component
  // deep under a valid one must still be found and re-run.
  const uint32_t qc = graph.ComponentOf(atom);
  cone.push_back(qc);
  slot[qc] = 1;
  for (size_t i = 0; i < cone.size(); ++i) {
    for (AtomId a : graph.Atoms(cone[i])) {
      for (RuleId r : gp_.RulesFor(a)) {
        if (!RuleEnabled(r)) continue;
        const GroundRule& rule = gp_.rules()[r];
        auto visit = [&](AtomId b) {
          uint32_t bc = graph.ComponentOf(b);
          if (slot[bc] == 0) {
            slot[bc] = 1;
            cone.push_back(bc);
          }
        };
        for (AtomId b : rule.pos) visit(b);
        for (AtomId b : rule.neg) visit(b);
      }
    }
  }
  // Discovery ranks double as schedule slots; the executors order by
  // label themselves.
  cone_.seeds.clear();
  uint64_t cone_atoms = 0;
  for (uint32_t i = 0; i < cone.size(); ++i) {
    slot[cone[i]] = i + 1;
    cone_atoms += graph.Atoms(cone[i]).size();
    if (!memo_.Valid(cone[i])) cone_.seeds.push_back(cone[i]);
  }
  const uint64_t size = cone.size();
  out->cone_components = static_cast<uint32_t>(size);
  out->cone_atoms = cone_atoms;

  if (cone_.seeds.empty()) {
    // Cone-local fast path: every relevant component is memoized, the
    // answer is already on the tape (stale components elsewhere in the
    // program cannot affect it).
    for (uint32_t c : cone) slot[c] = 0;
    cone.clear();
    memo_.CountHits(size);
    stats_.components_reused += size;
    out->memo_hits = static_cast<uint32_t>(size);
    return;
  }
  const uint64_t resolved = RunConePass(/*bounded=*/true, cancel).resolved;
  memo_.CountMisses(resolved);
  memo_.CountHits(size - resolved);
  stats_.components_reused += size - resolved;
  out->resolved_components = static_cast<uint32_t>(resolved);
  out->memo_hits = static_cast<uint32_t>(size - resolved);
  // Everything this pass re-validated leaves the pending set; entries for
  // still-stale components (outside the cone) stay for the next query or
  // `Model()` to consume.
  std::erase_if(stale_reps_, [this, &graph](AtomId a) {
    return memo_.Valid(graph.ComponentOf(a));
  });
}

IncrementalSolver::QueryAnswer IncrementalSolver::QueryAtom(AtomId atom) {
  assert(atom < gp_.atom_count());
  GSLS_TRACE_SPAN("solve.query", stats_.queries);
  const uint64_t t0 = opts_.telemetry != nullptr ? obs::NowNs() : 0;
  ++stats_.queries;
  EnsureGraph();
  GrowTapes();
  memo_.Grow(cond_->graph().id_bound());
  FoldDirtyIntoPending();

  QueryAnswer out;
  CancelCtx* cancel = BeginCancelPass();
  if (memo_.AllValid()) {
    // Global fast path: no component anywhere is stale, the tape holds
    // the full final model — answer without even walking the cone (and
    // without a checkpoint: a zero-work answer is exact even under a
    // cancelled token).
    ++stats_.query_fastpaths;
  } else {
    SolveDownCone(atom, &out, cancel);
  }
  out.outcome =
      cancel != nullptr ? cancel->outcome() : SolveOutcome::kCompleted;
  out.value = tape_.Value(atom);
  if (opts_.compute_levels) {
    out.true_stage = stape_.true_stage[atom];
    out.false_stage = stape_.false_stage[atom];
  }
  NoteOutcome(cancel, out.resolved_components);
  if (opts_.telemetry != nullptr) {
    tele_.query_latency_us->Record((obs::NowNs() - t0) / 1000);
    tele_.query_cone_components->Record(out.cone_components);
    tele_.query_cone_atoms->Record(out.cone_atoms);
    tele_.query_resolved_components->Record(out.resolved_components);
    tele_.query_memo_hits->Record(out.memo_hits);
    PublishTelemetry();
  }
  return out;
}

IncrementalSolver::QueryAnswer IncrementalSolver::QueryAtom(
    const Term* ground_atom) {
  std::optional<AtomId> id = gp_.FindAtom(ground_atom);
  if (!id.has_value()) {
    ++stats_.queries;
    ++stats_.query_fastpaths;
    QueryAnswer out;
    out.value = TruthValue::kFalse;
    if (opts_.compute_levels) out.false_stage = 1;
    return out;
  }
  return QueryAtom(*id);
}

void IncrementalSolver::InvalidateMemo() {
  memo_.InvalidateAll();
  // Warm interior state describes the tape the next pass will overwrite
  // from scratch; it would fail `BindingValid` afterwards anyway, so drop
  // it with the memo (this is the cache-drop lever, and the cold-cone
  // benches must measure truly cold solves).
  ClearWarm();
  // Everything is stale now; the finer-grained pending markers are
  // subsumed (the next `Model()` is a from-scratch solve, the next query
  // a cold cone), so drop them rather than re-solving piecemeal.
  stale_reps_.clear();
  dirty_.clear();
  solved_ = false;
}

IncrementalSolver::ResolveLog IncrementalSolver::TakeResolveLog() {
  ResolveLog out = std::move(resolve_log_);
  resolve_log_ = ResolveLog{};
  return out;
}

}  // namespace gsls
