#include "solver/component_eval.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "solver/parallel.h"
#include "solver/warm_component.h"

namespace gsls::solver {

namespace {

/// Direct 3-valued evaluation of a non-recursive atom: every body literal
/// refers to a lower component, so its value is final, and the atom is
/// just the disjunction of its rules' body conjunctions. O(rules) with no
/// fixpoint machinery — this is the hot path on stratified chains.
TruthValue EvalNonRecursiveAtom(const GroundProgram& gp, AtomId atom,
                                const TruthTape& values,
                                const std::vector<uint8_t>* disabled,
                                uint64_t* rules_visited) {
  TruthValue out = TruthValue::kFalse;
  for (RuleId rid : gp.RulesFor(atom)) {
    if (!RuleEnabledIn(disabled, rid)) continue;
    ++*rules_visited;
    const RuleView r = gp.rule(rid);
    TruthValue body = TruthValue::kTrue;
    for (AtomId b : r.pos) {
      if (values.IsFalse(b)) {
        body = TruthValue::kFalse;
        break;
      }
      if (!values.IsTrue(b)) body = TruthValue::kUndefined;
    }
    if (body != TruthValue::kFalse) {
      for (AtomId b : r.neg) {
        if (values.IsTrue(b)) {
          body = TruthValue::kFalse;
          break;
        }
        if (!values.IsFalse(b)) body = TruthValue::kUndefined;
      }
    }
    if (body == TruthValue::kTrue) return TruthValue::kTrue;
    if (body == TruthValue::kUndefined) out = TruthValue::kUndefined;
  }
  return out;
}

/// One worker's private diagnostics, padded so neighbouring workers'
/// counter increments never share a cache line.
struct alignas(64) WorkerDiag {
  SolverDiagnostics diag;
};

}  // namespace

template <bool kTrail>
ComponentEvaluator<kTrail>::ComponentEvaluator(
    const GroundProgram& gp, const AtomDependencyGraph& graph, uint32_t comp,
    const TruthTape& values, const std::vector<uint8_t>* disabled,
    CancelCtx* cancel)
    : table_(gp, graph, comp, values, disabled, cancel, /*keep_all=*/kTrail),
      support_(&table_) {}

template <bool kTrail>
bool ComponentEvaluator<kTrail>::Solve(TruthTape* values,
                                       SolverDiagnostics* diag,
                                       CancelCtx* cancel) {
  // A trip during rule compilation left an empty table and an untouched
  // tape: abort exactly as at the component's entry checkpoint.
  if (table_.aborted()) return false;
  if constexpr (kTrail) {
    trail_.batch.assign(table_.atom_count(), kNoBatch);
    trail_.firing.assign(table_.atom_count(), kNoRule);
  }
  diag->rules_visited += table_.rule_count();

  // Initial support closure on the pristine component; atoms with no
  // possible support (e.g. pure positive loops) fall out immediately.
  if (!support_.InitSources(&unfounded_, cancel)) return false;
  FalsifyUnfounded(values, diag);

  // Rules whose compiled body is empty are already satisfied.
  for (LocalRule r = 0; r < table_.rule_count(); ++r) {
    const CompiledRule& rule = table_.rule(r);
    if (!rule.dead && rule.unsat == 0) SetTrue(rule.head, r, values);
  }
  if (!RunToFixpoint(values, diag, cancel)) return false;
  diag->unfounded_floods += support_.floods();
  diag->flood_sizes.MergeFrom(support_.flood_sizes());
  return true;
}

template <bool kTrail>
void ComponentEvaluator<kTrail>::SetTrue(LocalAtom a, LocalRule r,
                                         TruthTape* values) {
  AtomId g = table_.GlobalAtom(a);
  if (values->IsTrue(g)) return;
  // A rule fires only with a wholly true body, which never includes an
  // unfounded atom, so a fired head cannot have been falsified.
  assert(!values->IsFalse(g));
  values->SetTrue(g);
  support_.OnAtomTrue(a);
  if constexpr (kTrail) {
    trail_.batch[a] = trail_.next_batch++;
    trail_.firing[a] = r;
    trail_.order.push_back(a);
  }
  true_queue_.push_back(a);
}

template <bool kTrail>
void ComponentEvaluator<kTrail>::SetFalse(LocalAtom a, uint64_t batch,
                                          TruthTape* values) {
  AtomId g = table_.GlobalAtom(a);
  if (values->IsFalse(g)) return;
  assert(!values->IsTrue(g));
  values->SetFalse(g);
  if constexpr (kTrail) {
    trail_.batch[a] = batch;
    trail_.firing[a] = kNoRule;
    trail_.order.push_back(a);
  }
  false_queue_.push_back(a);
}

template <bool kTrail>
void ComponentEvaluator<kTrail>::FalsifyUnfounded(TruthTape* values,
                                                  SolverDiagnostics* diag) {
  diag->unfounded_falsified += unfounded_.size();
  if (unfounded_.empty()) return;
  // One flood's falsifications are mutually justified (the greatest
  // unfounded set falls together): they share one batch so an undo can
  // never split them.
  const uint64_t batch = kTrail ? trail_.next_batch++ : 0;
  for (LocalAtom a : unfounded_) SetFalse(a, batch, values);
}

template <bool kTrail>
void ComponentEvaluator<kTrail>::Kill(LocalRule r) {
  CompiledRule& rule = table_.rule(r);
  if (rule.dead) return;
  rule.dead = true;
  support_.OnRuleDead(r);
}

template <bool kTrail>
bool ComponentEvaluator<kTrail>::Propagate(TruthTape* values,
                                           CancelCtx* cancel) {
  // The lfp loop is the worst-case-quadratic interior of a dense SCC:
  // strided polling bounds abort latency to `kCancelStride` pops.
  StridedCheckpoint tick(cancel);
  while (!true_queue_.empty() || !false_queue_.empty()) {
    if (tick.Tick()) return false;
    if (!true_queue_.empty()) {
      LocalAtom a = true_queue_.back();
      true_queue_.pop_back();
      for (LocalRule r : table_.PositiveOccurrences(a)) {
        CompiledRule& rule = table_.rule(r);
        if (!rule.dead && --rule.unsat == 0) SetTrue(rule.head, r, values);
      }
      // `not a` is now false: those rules are unusable for good.
      for (LocalRule r : table_.NegativeOccurrences(a)) Kill(r);
    } else {
      LocalAtom a = false_queue_.back();
      false_queue_.pop_back();
      for (LocalRule r : table_.PositiveOccurrences(a)) Kill(r);
      // `not a` is now satisfied.
      for (LocalRule r : table_.NegativeOccurrences(a)) {
        CompiledRule& rule = table_.rule(r);
        if (!rule.dead && --rule.unsat == 0) SetTrue(rule.head, r, values);
      }
    }
  }
  return true;
}

template <bool kTrail>
bool ComponentEvaluator<kTrail>::RunToFixpoint(TruthTape* values,
                                               SolverDiagnostics* diag,
                                               CancelCtx* cancel) {
  // Component-local alternating fixpoint: exhaust truth/false
  // propagation, then fold the next greatest-unfounded layer in, until
  // both are quiescent. The two phases trace as separate spans so a
  // timeline shows where a slow component spends its time.
  while (true) {
    {
      GSLS_TRACE_SPAN("component.lfp", table_.rule_count());
      if (!Propagate(values, cancel)) return false;
    }
    if (!support_.HasPending()) break;
    ++diag->alternating_rounds;
    unfounded_.clear();
    {
      GSLS_TRACE_SPAN("component.unfounded", support_.floods());
      if (!support_.CollectUnfounded(&unfounded_, cancel)) return false;
    }
    FalsifyUnfounded(values, diag);
  }
  return true;
}

template class ComponentEvaluator<false>;
template class ComponentEvaluator<true>;

bool SolveComponent(const GroundProgram& gp, const AtomDependencyGraph& graph,
                    uint32_t comp, const std::vector<uint8_t>* disabled,
                    TruthTape* values, StageTape* stages,
                    SolverDiagnostics* diag, CancelCtx* cancel,
                    WarmComponent* warm) {
  if (cancel != nullptr && cancel->Checkpoint()) return false;
  if (!graph.IsRecursive(comp)) {
    // Singleton without a self-loop: one 3-valued pass over its rules.
    AtomId a = graph.Atoms(comp)[0];
    switch (EvalNonRecursiveAtom(gp, a, *values, disabled,
                                 &diag->rules_visited)) {
      case TruthValue::kTrue: values->SetTrue(a); break;
      case TruthValue::kFalse: values->SetFalse(a); break;
      case TruthValue::kUndefined: break;
    }
  } else {
    const bool resume = warm != nullptr && warm->solved();
    GSLS_TRACE_SPAN(resume ? "solve.component.warm" : "solve.component",
                    comp);
    ++diag->recursive_components;
    if (graph.HasInternalNegation(comp)) ++diag->negation_components;
    bool ok;
    if (resume) {
      ok = warm->Resolve(disabled, values, diag, cancel);
    } else if (warm != nullptr) {
      ok = warm->Solve(gp, graph, comp, disabled, values, diag, cancel);
    } else {
      ok = ComponentEvaluator<false>(gp, graph, comp, *values, disabled,
                                     cancel)
               .Solve(values, diag, cancel);
    }
    if (!ok) {
      // Abort invariant ("fully old or fully new"): erase the partial
      // writes so the component reads as all-undefined. Stages were not
      // touched (reconstruction runs only after values finalize).
      for (AtomId a : graph.Atoms(comp)) values->SetUndefined(a);
      return false;
    }
  }
  if (stages != nullptr) {
    ReconstructComponentStages(gp, graph, comp, disabled, *values, stages);
  }
  return true;
}

bool SolveAllComponents(const GroundProgram& gp,
                        const AtomDependencyGraph& graph,
                        const std::vector<uint8_t>* disabled,
                        WorkStealingPool* pool, TruthTape* values,
                        StageTape* stages, SolverDiagnostics* diag,
                        CancelCtx* cancel, std::vector<uint8_t>* solved) {
  const uint32_t ncomp = graph.component_count();
  values->Assign(gp.atom_count());
  if (stages != nullptr) stages->Assign(gp.atom_count());
  if (solved != nullptr) solved->assign(ncomp, 0);
  diag->component_count = ncomp;
  auto step = [&](SolverDiagnostics* d, uint32_t c) {
    d->max_component_size = std::max(
        d->max_component_size, static_cast<uint32_t>(graph.Atoms(c).size()));
    if (!SolveComponent(gp, graph, c, disabled, values, stages, d, cancel)) {
      return false;
    }
    if (solved != nullptr) (*solved)[c] = 1;
    return true;
  };
  if (pool == nullptr) {
    for (uint32_t c = 0; c < ncomp; ++c) {
      if (!step(diag, c)) return false;
    }
    return true;
  }

  // Ready-release: workers write their components into disjoint bytes of
  // the tapes, and a component only reads components the dependency order
  // put before it, so plain stores plus the release/acquire on the pending
  // counters are race-free. Solved flags are written before the releasing
  // decrement, so they are as race-free as the values.
  GSLS_TRACE_SPAN("solve.parallel", ncomp);
  std::vector<WorkerDiag> worker_diags(pool->size());
  RunReadyReleaseSchedule(
      pool, gp, graph, disabled, ncomp, [](uint32_t i) { return i; },
      [](uint32_t s) { return s; },
      [&](unsigned worker, uint32_t c) {
        return step(&worker_diags[worker].diag, c);
      });
  for (const WorkerDiag& wd : worker_diags) diag->MergeFrom(wd.diag);
  return cancel == nullptr || !cancel->aborted();
}

WfsModel ToWfsModel(const TruthTape& values, const StageTape* stages,
                    uint64_t rounds, const CancelCtx* cancel) {
  WfsModel out;
  out.model = values.ToInterpretation();
  out.iterations = static_cast<uint32_t>(rounds);
  if (cancel != nullptr) out.outcome = cancel->outcome();
  if (stages != nullptr) {
    out.true_stage = stages->true_stage;
    out.false_stage = stages->false_stage;
    out.has_levels = true;
  }
  return out;
}

}  // namespace gsls::solver
