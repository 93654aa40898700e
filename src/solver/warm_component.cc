#include "solver/warm_component.h"

#include <algorithm>
#include <span>
#include <utility>

#include "util/strings.h"

namespace gsls::solver {

namespace {

/// From-scratch recount of one rule's `dead` / `undef_external` / `unsat`
/// against the live tape and mask — the audit oracle for the counters the
/// propagation loop maintains incrementally.
void ExpectedCounters(const RuleTable& t, LocalRule r, const TruthTape& tape,
                      const std::vector<uint8_t>* disabled, bool* dead,
                      uint32_t* undef_ext, uint32_t* unsat) {
  *dead = !RuleEnabledIn(disabled, t.GlobalRule(r));
  *undef_ext = 0;
  uint32_t internal = 0;
  for (AtomId b : t.ExtPos(r)) {
    if (tape.IsFalse(b)) *dead = true;
    else if (!tape.IsTrue(b)) ++*undef_ext;
  }
  for (AtomId b : t.ExtNeg(r)) {
    if (tape.IsTrue(b)) *dead = true;
    else if (!tape.IsFalse(b)) ++*undef_ext;
  }
  for (LocalAtom lb : t.PosBody(r)) {
    AtomId g = t.GlobalAtom(lb);
    if (tape.IsFalse(g)) *dead = true;
    else if (!tape.IsTrue(g)) ++internal;
  }
  for (LocalAtom lb : t.NegBody(r)) {
    AtomId g = t.GlobalAtom(lb);
    if (tape.IsTrue(g)) *dead = true;
    else if (!tape.IsFalse(g)) ++internal;
  }
  *unsat = internal + *undef_ext;
}

}  // namespace

bool WarmComponent::Solve(const GroundProgram& gp,
                          const AtomDependencyGraph& graph, uint32_t comp,
                          const std::vector<uint8_t>* disabled,
                          TruthTape* values, SolverDiagnostics* diag,
                          CancelCtx* cancel) {
  eval_.emplace(gp, graph, comp, *values, disabled, cancel);
  rule_stamp_.assign(eval_->table_.rule_count(), 0);
  stamp_ = 0;
  // The compile read the live mask and tape, except the externals whose
  // every occurrence is disabled: those start out recorded.
  const RuleTable& t = eval_->table_;
  drift_rules_.clear();
  drift_exts_.clear();
  rule_recorded_.assign(t.rule_count(), 0);
  ext_recorded_.assign(t.external_count(), 0);
  for (uint32_t i = 0; i < t.external_count(); ++i) {
    if (t.ExternalSnapshot(i) == RuleTable::kUnread) {
      ext_recorded_[i] = 1;
      drift_exts_.push_back(i);
    }
  }
  return eval_->Solve(values, diag, cancel);
}

void WarmComponent::RecordRuleFlip(RuleId r) {
  if (!eval_.has_value()) return;
  const LocalRule local = eval_->table_.LocalRuleOf(r);
  if (local == kNoRule) return;
  std::lock_guard<std::mutex> lock(drift_mu_);
  if (std::exchange(rule_recorded_[local], 1) == 0) {
    drift_rules_.push_back(local);
  }
}

void WarmComponent::RecordExternalMove(AtomId a) {
  if (!eval_.has_value()) return;
  const uint32_t i = eval_->table_.ExternalIndexOf(a);
  if (i == RuleTable::kNoExternal) return;
  std::lock_guard<std::mutex> lock(drift_mu_);
  if (std::exchange(ext_recorded_[i], 1) == 0) drift_exts_.push_back(i);
}

bool WarmComponent::FalseWitnessed(LocalRule r, const TruthTape& values,
                                   const std::vector<uint8_t>* disabled) const {
  const RuleTable& t = eval_->table_;
  const std::vector<uint64_t>& batch = eval_->trail_.batch;
  const uint64_t head_batch = batch[t.rule(r).head];
  if (!RuleEnabledIn(disabled, t.GlobalRule(r))) return true;
  for (AtomId b : t.ExtPos(r)) {
    if (values.IsFalse(b)) return true;
  }
  for (AtomId b : t.ExtNeg(r)) {
    if (values.IsTrue(b)) return true;
  }
  for (LocalAtom b : t.PosBody(r)) {
    if (values.IsFalse(t.GlobalAtom(b)) && batch[b] <= head_batch) return true;
  }
  for (LocalAtom b : t.NegBody(r)) {
    if (values.IsTrue(t.GlobalAtom(b)) && batch[b] < head_batch) return true;
  }
  return false;
}

bool WarmComponent::BindingValid(const GroundProgram& gp,
                                 const AtomDependencyGraph& graph,
                                 uint32_t comp,
                                 const TruthTape& values) const {
  if (!eval_.has_value()) return false;
  const RuleTable& t = eval_->table_;
  std::span<const AtomId> members = graph.Atoms(comp);
  if (members.size() != t.atom_count()) return false;
  // Sequence (not multiset) equality: a recondensation that re-emitted the
  // members in a different Tarjan order changes every local id the trail
  // and the compiled bodies are keyed by.
  for (LocalAtom a = 0; a < members.size(); ++a) {
    if (members[a] != t.GlobalAtom(a)) return false;
  }
  // Rules are only appended to a `GroundProgram`, never removed, so a
  // candidate-count match (the keep-all table retains every candidate)
  // means no new rule targets this component; mask flips of retained
  // rules are what `Resolve` patches.
  size_t candidates = 0;
  for (AtomId a : members) candidates += gp.RulesFor(a).size();
  if (candidates != t.rule_count()) return false;
  // Tape consistency: an out-of-band pass (a fresh full solve, a cold
  // re-solve that bypassed this entry) may have rewritten the component's
  // bytes; the tracker is then stale and the state must be discarded.
  for (LocalAtom a = 0; a < members.size(); ++a) {
    SourceTracker::State s = eval_->support_.StateOf(a);
    switch (values.Value(members[a])) {
      case TruthValue::kTrue:
        if (s != SourceTracker::State::kTrue) return false;
        break;
      case TruthValue::kFalse:
        if (s != SourceTracker::State::kFalse) return false;
        break;
      case TruthValue::kUndefined:
        if (s != SourceTracker::State::kSourced) return false;
        break;
    }
  }
  return true;
}

bool WarmComponent::Resolve(const std::vector<uint8_t>* disabled,
                            TruthTape* values, SolverDiagnostics* diag,
                            CancelCtx* cancel) {
  RuleTable& t = eval_->table_;
  SourceTracker& support = eval_->support_;
  DecisionTrail& trail = eval_->trail_;
  const uint64_t floods_before = support.floods();
  const uint64_t flood_sum_before = support.flood_sizes().sum;
  eval_->true_queue_.clear();
  eval_->false_queue_.clear();

  // Phase 1: reconcile the recorded drift — exactly the mask flips and
  // external moves reported since the last re-solve, each against its
  // snapshot (a move that moved back is no drift) — and touch the rules it
  // reaches: the flipped rules and the drifted externals' occurrence rows.
  // Nothing else in the component is read. An external whose occurrences
  // are all disabled stays recorded unread (`HasEnabledOccurrence`): its
  // rules are dead whatever it holds, and the flip that revives one brings
  // it back here. Reconciling here rather than after the fixpoint is safe:
  // an aborted pass discards the entry.
  ++stamp_;
  recomputed_.clear();
  auto touch = [this](LocalRule r) {
    if (rule_stamp_[r] == stamp_) return;
    rule_stamp_[r] = stamp_;
    recomputed_.push_back(r);
  };
  {
    std::lock_guard<std::mutex> lock(drift_mu_);
    diag->warm_drift_entries += drift_rules_.size() + drift_exts_.size();
    for (LocalRule r : drift_rules_) {
      rule_recorded_[r] = 0;
      if (t.ReconcileDisabled(r, disabled)) touch(r);
    }
    drift_rules_.clear();
    size_t kept = 0;
    for (uint32_t i : drift_exts_) {
      if (!t.HasEnabledOccurrence(i, disabled)) {
        drift_exts_[kept++] = i;
        continue;
      }
      ext_recorded_[i] = 0;
      if (t.ReconcileExternal(i, *values)) {
        for (LocalRule r : t.ExternalOccurrences(i)) touch(r);
      }
    }
    drift_exts_.resize(kept);
  }

  // Phase 2: patch the touched rules (pre-undo tape) and collect the undo
  // threshold t*: the earliest batch whose justification the drift broke.
  uint64_t tstar = kNoBatch;
  const size_t drift_rules = recomputed_.size();
  for (size_t k = 0; k < drift_rules; ++k) {
    LocalRule r = recomputed_[k];
    CompiledRule& rule = t.rule(r);
    const bool was_dead = rule.dead;
    t.RecomputeRule(r, *values, disabled);
    if (!was_dead && rule.dead) support.OnRuleDead(r);
    const LocalAtom h = rule.head;
    const AtomId hg = t.GlobalAtom(h);
    // A true head whose firing rule no longer has a wholly satisfied
    // body: its justification broke.
    if (values->IsTrue(hg) && trail.firing[h] == r &&
        (rule.dead || rule.unsat != 0)) {
      tstar = std::min(tstar, trail.batch[h]);
    }
    // A false head rested on this rule being dead through a witness no
    // later than itself. A revived rule has none left; a rule still dead
    // may be dead only through a later decision, which would make the
    // falsification justify itself.
    if (values->IsFalse(hg) &&
        (!rule.dead || !FalseWitnessed(r, *values, disabled))) {
      tstar = std::min(tstar, trail.batch[h]);
    }
  }

  // Phase 3: undo the trail suffix with batch >= t*. Suffix-only by
  // construction — batches are monotone along the trail, one flood shares
  // one batch, and every surviving decision's justification references
  // earlier batches, so the survivors stay fully justified.
  size_t undone = 0;
  if (tstar != kNoBatch) {
    while (!trail.order.empty() && trail.batch[trail.order.back()] >= tstar) {
      LocalAtom a = trail.order.back();
      trail.order.pop_back();
      values->SetUndefined(t.GlobalAtom(a));
      trail.batch[a] = kNoBatch;
      trail.firing[a] = kNoRule;
      support.OnAtomUndone(a);
      // Every adjacent rule's counters are recomputed below, once the
      // post-undo tape is final. The atom's own candidate rules are
      // touched too: a rule whose body survived the undo untouched can
      // still be fireable, and only phase 4's firing loop will push it
      // back into the now-undefined head — the unfounded flood re-sources
      // undefined atoms but never derives truth.
      for (LocalRule r : t.RulesFor(a)) touch(r);
      for (LocalRule r : t.PositiveOccurrences(a)) touch(r);
      for (LocalRule r : t.NegativeOccurrences(a)) touch(r);
      ++undone;
    }
  }
  diag->warm_undone_atoms += undone;
  diag->rules_visited += recomputed_.size();

  // Phase 4: recompute every touched rule against the post-undo tape
  // (undo can only revive rules — it moves atoms to undefined, never
  // decides them — so no new deaths arise here), then fire the live
  // empty-remainder rules into the undone region.
  for (LocalRule r : recomputed_) {
    CompiledRule& rule = t.rule(r);
    const bool was_dead = rule.dead;
    t.RecomputeRule(r, *values, disabled);
    if (!was_dead && rule.dead) support.OnRuleDead(r);
  }
  for (LocalRule r : recomputed_) {
    const CompiledRule& rule = t.rule(r);
    if (!rule.dead && rule.unsat == 0 &&
        values->IsUndefined(t.GlobalAtom(rule.head))) {
      eval_->SetTrue(rule.head, r, values);
    }
  }

  // Phase 5: resume the alternating fixpoint. The first flood is seeded
  // from exactly the undone atoms and the heads whose sources died — the
  // delta's footprint — instead of `InitSources` over the component.
  if (!eval_->RunToFixpoint(values, diag, cancel)) return false;
  ++diag->warm_hits;
  diag->unfounded_floods += support.floods() - floods_before;
  diag->seeded_flood_sizes.Record(support.flood_sizes().sum -
                                  flood_sum_before);
  return true;
}

bool WarmComponent::AuditInvariants(const GroundProgram& gp,
                                    const AtomDependencyGraph& graph,
                                    uint32_t comp,
                                    const std::vector<uint8_t>* disabled,
                                    const TruthTape& values,
                                    std::string* why) const {
  auto fail = [why](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (!eval_.has_value()) return fail("warm entry was never solved");
  if (!BindingValid(gp, graph, comp, values)) {
    return fail("warm binding invalid (atom sequence, candidate count, or "
                "tape/tracker mismatch)");
  }
  const RuleTable& t = eval_->table_;
  const SourceTracker& support = eval_->support_;
  const DecisionTrail& trail = eval_->trail_;
  // The table's atoms, in order: `BindingValid` checked it.
  const std::span<const AtomId> atoms = graph.Atoms(comp);
  const size_t n = atoms.size();

  // Snapshots must be reconciled at quiescence — except an external slot
  // whose every occurrence is mask-disabled: a delta may change such an
  // atom without dirtying this component (disabled rules cannot move its
  // values, so the change-pruned up-cone rightly skips it), and the next
  // warm re-solve reconciles the drift. That re-solve reads only the drift
  // record, so the stale slot must be in it. An *enabled* occurrence of a
  // stale external means the component should have re-solved: violation.
  std::lock_guard<std::mutex> lock(drift_mu_);
  for (uint32_t i = 0; i < t.external_count(); ++i) {
    if (t.ExternalSnapshot(i) ==
        RuleTable::Code(values, t.ExternalAtom(i))) {
      continue;
    }
    if (ext_recorded_[i] == 0) {
      return fail(StrCat("external snapshot stale at atom ",
                         t.ExternalAtom(i), " but its move is unrecorded"));
    }
    for (LocalRule r : t.ExternalOccurrences(i)) {
      if (RuleEnabledIn(disabled, t.GlobalRule(r))) {
        return fail(StrCat("external snapshot stale at atom ",
                           t.ExternalAtom(i),
                           " with enabled occurrence rule ",
                           t.GlobalRule(r)));
      }
    }
  }
  for (LocalRule r = 0; r < t.rule_count(); ++r) {
    uint8_t now = !RuleEnabledIn(disabled, t.GlobalRule(r));
    if (t.DisabledSnapshot(r) != now) {
      return fail(
          StrCat("disabled snapshot stale at rule ", t.GlobalRule(r)));
    }
  }

  // Cached counters: the dead flag must equal a from-scratch recount
  // exactly; live rules' unsat/undef_external likewise. Dead rules'
  // counters are allowed to be stale — the propagation loop never
  // decrements them and a revival recomputes them first.
  for (LocalRule r = 0; r < t.rule_count(); ++r) {
    const CompiledRule& rule = t.rule(r);
    bool dead;
    uint32_t undef_ext;
    uint32_t unsat;
    ExpectedCounters(t, r, values, disabled, &dead, &undef_ext, &unsat);
    if (rule.dead != dead) {
      return fail(StrCat("rule ", t.GlobalRule(r), " dead flag is ",
                         rule.dead ? 1 : 0, " but recount says ",
                         dead ? 1 : 0));
    }
    if (!rule.dead &&
        (rule.unsat != unsat || rule.undef_external != undef_ext)) {
      return fail(StrCat("rule ", t.GlobalRule(r),
                         " counters drifted: unsat=", rule.unsat,
                         " recount=", unsat));
    }
  }

  // Per-atom state: sources live and well-formed, firing rules still
  // satisfied, falsified atoms with every rule dead.
  for (LocalAtom a = 0; a < n; ++a) {
    switch (support.StateOf(a)) {
      case SourceTracker::State::kSourced: {
        LocalRule s = support.SourceOf(a);
        if (s == kNoRule) {
          return fail(StrCat("sourced atom ", atoms[a], " has no source"));
        }
        const CompiledRule& rule = t.rule(s);
        if (rule.head != a) {
          return fail(StrCat("source of atom ", atoms[a],
                             " heads a different atom"));
        }
        if (rule.dead) {
          return fail(StrCat("source of atom ", atoms[a], " is dead"));
        }
        for (LocalAtom b : t.PosBody(s)) {
          SourceTracker::State bs = support.StateOf(b);
          if (bs != SourceTracker::State::kSourced &&
              bs != SourceTracker::State::kTrue) {
            return fail(StrCat("source body of atom ", atoms[a],
                               " is not supported"));
          }
        }
        break;
      }
      case SourceTracker::State::kUnsourced:
        return fail(StrCat("atom ", atoms[a], " unsourced at quiescence"));
      case SourceTracker::State::kTrue: {
        LocalRule f = trail.firing[a];
        if (f == kNoRule || trail.batch[a] == kNoBatch) {
          return fail(StrCat("true atom ", atoms[a],
                             " without firing rule or batch"));
        }
        const CompiledRule& rule = t.rule(f);
        if (rule.head != a || rule.dead || rule.unsat != 0) {
          return fail(StrCat("firing rule of atom ", atoms[a],
                             " no longer fires it"));
        }
        break;
      }
      case SourceTracker::State::kFalse: {
        for (LocalRule r : t.RulesFor(a)) {
          if (!t.rule(r).dead) {
            return fail(
                StrCat("false atom ", atoms[a], " has a live rule"));
          }
          if (!FalseWitnessed(r, values, disabled)) {
            return fail(StrCat("false atom ", atoms[a], " rule ",
                               t.GlobalRule(r),
                               " has no witness decided before it"));
          }
        }
        break;
      }
    }
  }

  // Trail well-formedness: exactly the decided atoms, each once, batches
  // monotone non-decreasing in push order.
  std::vector<uint8_t> on_trail(n, 0);
  uint64_t prev = 0;
  bool first = true;
  for (LocalAtom a : trail.order) {
    if (on_trail[a]) return fail(StrCat("atom ", atoms[a], " twice on trail"));
    on_trail[a] = 1;
    if (trail.batch[a] == kNoBatch) {
      return fail(StrCat("trail atom ", atoms[a], " without batch"));
    }
    if (!first && trail.batch[a] < prev) {
      return fail(StrCat("trail batches not monotone at atom ", atoms[a]));
    }
    prev = trail.batch[a];
    first = false;
    if (values.IsUndefined(atoms[a])) {
      return fail(StrCat("undecided atom ", atoms[a], " on trail"));
    }
  }
  for (LocalAtom a = 0; a < n; ++a) {
    bool decided = !values.IsUndefined(atoms[a]);
    if (decided && !on_trail[a]) {
      return fail(StrCat("decided atom ", atoms[a], " missing from trail"));
    }
    if (!decided && trail.batch[a] != kNoBatch) {
      return fail(StrCat("undecided atom ", atoms[a], " carries a batch"));
    }
  }

  // Source-pointer acyclicity: DFS over the sourced atoms following the
  // source rule's internal positive body (true atoms terminate chains).
  std::vector<uint8_t> color(n, 0);  // 0 white, 1 gray, 2 black
  std::vector<std::pair<LocalAtom, size_t>> stack;
  for (LocalAtom root = 0; root < n; ++root) {
    if (support.StateOf(root) != SourceTracker::State::kSourced ||
        color[root] != 0) {
      continue;
    }
    color[root] = 1;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      LocalAtom a = stack.back().first;
      std::span<const LocalAtom> body = t.PosBody(support.SourceOf(a));
      if (stack.back().second == body.size()) {
        color[a] = 2;
        stack.pop_back();
        continue;
      }
      LocalAtom b = body[stack.back().second++];
      if (support.StateOf(b) != SourceTracker::State::kSourced) continue;
      if (color[b] == 1) {
        return fail(StrCat("source pointer cycle through atom ", atoms[b]));
      }
      if (color[b] == 0) {
        color[b] = 1;
        stack.push_back({b, 0});
      }
    }
  }
  return true;
}

}  // namespace gsls::solver
