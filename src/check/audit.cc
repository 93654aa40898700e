#include "check/audit.h"

#include <algorithm>
#include <cstddef>

#include "analysis/atom_dependency_graph.h"
#include "analysis/dynamic_condensation.h"
#include "serve/server.h"
#include "solver/component_eval.h"
#include "solver/stages.h"
#include "solver/truth_tape.h"
#include "util/strings.h"

namespace gsls::check {

namespace {

/// Failure lines beyond this are one corrupted structure reported many
/// times over; the cap keeps a broken-invariant test log readable.
constexpr size_t kMaxFailures = 32;

void Fail(AuditReport* report, std::string message) {
  if (report->failures.size() < kMaxFailures) {
    report->failures.push_back(std::move(message));
  }
}

int ValueInt(TruthValue v) { return static_cast<int>(v); }

}  // namespace

std::string AuditReport::ToString() const {
  if (ok()) return "ok";
  std::string out;
  for (const std::string& f : failures) {
    out += f;
    out += '\n';
  }
  return out;
}

AuditReport SolverAuditor::Audit(const IncrementalSolver& s) {
  AuditReport report;
  if (s.cond_ == nullptr) return report;  // nothing built, nothing to break
  const AtomDependencyGraph& g = s.cond_->graph();
  const GroundProgram& gp = s.gp_;
  const uint32_t bound = g.id_bound();
  const size_t covered = g.atom_count();

  // -- 2. Slice well-formedness and stable-id bookkeeping ---------------
  if (covered > gp.atom_count()) {
    Fail(&report, StrCat("graph covers ", covered, " atoms but the program "
                         "registers only ", gp.atom_count()));
  }
  std::vector<uint8_t> freed(bound, 0);
  for (uint32_t c : g.free_ids()) {
    if (c >= bound || freed[c] != 0) {
      Fail(&report, StrCat("free list entry ", c, " out of range or "
                           "repeated"));
      continue;
    }
    freed[c] = 1;
  }
  size_t member_total = 0;
  std::vector<uint32_t> live;
  for (uint32_t c = 0; c < bound; ++c) {
    const size_t size = g.Atoms(c).size();
    member_total += size;
    if ((size == 0) != (freed[c] != 0)) {
      Fail(&report, StrCat("component ", c, " holds ", size, " atoms but is ",
                           freed[c] != 0 ? "" : "not ", "on the free list"));
    }
    if (size != 0) live.push_back(c);
  }
  if (member_total != covered) {
    Fail(&report, StrCat("component slices hold ", member_total,
                         " atoms, graph covers ", covered));
  }
  for (AtomId a = 0; a < covered; ++a) {
    const uint32_t c = g.ComponentOf(a);
    if (c >= bound || freed[c] != 0) {
      Fail(&report, StrCat("atom ", a, ": component ", c,
                           " out of range or freed"));
      continue;
    }
    const std::span<const AtomId> atoms = g.Atoms(c);
    const uint32_t rank = g.LocalIndexOf(a);
    if (rank >= atoms.size() || atoms[rank] != a) {
      Fail(&report, StrCat("atom ", a, ": slice of component ", c,
                           " does not list it at rank ", rank));
    }
  }
  std::vector<uint32_t> by_label = live;
  std::sort(by_label.begin(), by_label.end(), [&](uint32_t x, uint32_t y) {
    return g.Label(x) < g.Label(y);
  });
  for (size_t i = 1; i < by_label.size(); ++i) {
    if (g.Label(by_label[i - 1]) == g.Label(by_label[i])) {
      Fail(&report, StrCat("components ", by_label[i - 1], " and ",
                           by_label[i], " share label ",
                           g.Label(by_label[i])));
    }
  }
  // The label-order list links exactly the live components, ascending.
  const DynamicCondensation& cond = *s.cond_;
  size_t linked = 0;
  for (uint32_t c = cond.first_, prev = DynamicCondensation::kNone;
       c != DynamicCondensation::kNone; prev = c, c = cond.next_[c]) {
    if (c >= bound || freed[c] != 0 || linked == live.size()) {
      Fail(&report, StrCat("label-order list reaches ", c,
                           ", a freed or repeated id"));
      break;
    }
    if (cond.prev_[c] != prev ||
        (prev != DynamicCondensation::kNone && g.Label(prev) >= g.Label(c))) {
      Fail(&report, StrCat("label-order list: component ", c,
                           " does not follow ", prev, " in label order"));
    }
    ++linked;
  }
  if (linked != live.size()) {
    Fail(&report, StrCat("label-order list links ", linked, " of ",
                         live.size(), " live components"));
  }

  // -- 1. Condensation vs fresh Tarjan ----------------------------------
  // Only when the maintained graph covers every registered atom (between
  // an atom-interning delta and the next solve it legitimately lags; the
  // next pass grows it before any component runs).
  if (covered == gp.atom_count()) {
    report.graph_audited = true;
    AtomDependencyGraph fresh(gp, &s.disabled_);
    if (fresh.component_count() != live.size()) {
      Fail(&report, StrCat("maintained condensation has ", live.size(),
                           " components, fresh Tarjan finds ",
                           fresh.component_count()));
    } else {
      for (uint32_t c : live) {
        const std::span<const AtomId> atoms = g.Atoms(c);
        const uint32_t fc = fresh.ComponentOf(atoms[0]);
        if (fresh.Atoms(fc).size() != atoms.size()) {
          Fail(&report, StrCat("component ", c, " has ", atoms.size(),
                               " atoms, its fresh counterpart ", fc, " has ",
                               fresh.Atoms(fc).size()));
        }
        for (AtomId a : atoms) {
          if (fresh.ComponentOf(a) != fc) {
            Fail(&report, StrCat("atoms ", atoms[0], " and ", a,
                                 " share maintained component ", c,
                                 " but not a fresh component"));
            break;
          }
        }
        if (g.IsRecursive(c) != fresh.IsRecursive(fc) ||
            g.HasInternalNegation(c) != fresh.HasInternalNegation(fc)) {
          Fail(&report, StrCat("component ", c, ": flags recursive=",
                               g.IsRecursive(c), " neg=",
                               g.HasInternalNegation(c),
                               " disagree with fresh build (recursive=",
                               fresh.IsRecursive(fc), " neg=",
                               fresh.HasInternalNegation(fc), ")"));
        }
      }
    }
    // Maintained labels must be *a* dependency order (not necessarily the
    // fresh one): every enabled cross-component edge runs from a lower
    // label to a higher one.
    const std::vector<GroundRule>& rules = gp.rules();
    for (RuleId r = 0; r < rules.size(); ++r) {
      if (!RuleEnabledIn(&s.disabled_, r)) continue;
      const uint32_t hc = g.ComponentOf(rules[r].head);
      auto check = [&](AtomId b, const char* sign) {
        const uint32_t bc = g.ComponentOf(b);
        if (bc != hc && g.Label(bc) >= g.Label(hc)) {
          Fail(&report, StrCat("rule ", r, ": ", sign, " body atom ", b,
                               " in component ", bc, " (label ", g.Label(bc),
                               ") not below head component ", hc, " (label ",
                               g.Label(hc), ")"));
        }
      };
      for (AtomId b : rules[r].pos) check(b, "positive");
      for (AtomId b : rules[r].neg) check(b, "negative");
    }
  }

  // -- 4. Memo / stale-set consistency ----------------------------------
  if (s.memo_.size() > bound) {
    Fail(&report, StrCat("memo tracks ", s.memo_.size(), " components, "
                         "condensation ids end at ", bound));
  }
  for (AtomId rep : s.stale_reps_) {
    if (rep >= covered) {
      Fail(&report, StrCat("stale representative ", rep,
                           " outside the condensation"));
      continue;
    }
    const uint32_t c = g.ComponentOf(rep);
    if (s.memo_.Valid(c)) {
      Fail(&report, StrCat("component ", c, " (rep ", rep,
                           ") is queued stale yet memo-valid"));
    }
  }

  // -- 6. persisted warm component state --------------------------------
  // The warm-interior contract: an entry in the warm store is either
  // provably consistent with the live tape and mask, or it must have been
  // discarded. `WarmComponent::AuditInvariants` re-derives every piece —
  // live-rule counters vs a from-scratch recount, source pointers live and
  // acyclic, trail batches monotone with every decision justified.
  for (const auto& [key, entry] : s.warm_) {
    if (entry == nullptr) {
      Fail(&report, StrCat("warm entry for atom ", key, " is null"));
      continue;
    }
    if (key >= covered) {
      Fail(&report, StrCat("warm entry keyed by atom ", key,
                           " outside the condensation"));
      continue;
    }
    const uint32_t c = g.ComponentOf(key);
    const std::span<const AtomId> watoms = g.Atoms(c);
    if (watoms.empty() || watoms[0] != key) {
      Fail(&report, StrCat("warm entry keyed by atom ", key,
                           " which is not component ", c,
                           "'s representative"));
      continue;
    }
    // Drift reaches an entry only through its component's flag byte.
    if (c >= s.has_warm_.size() || s.has_warm_[c] == 0) {
      Fail(&report, StrCat("warm entry of component ", c, " (rep ", key,
                           ") is not flagged: its drift goes unrecorded"));
      continue;
    }
    std::string why;
    if (!entry->AuditInvariants(gp, g, c, &s.disabled_, s.tape_, &why)) {
      Fail(&report, StrCat("warm state of component ", c, " (rep ", key,
                           "): ", why));
      continue;
    }
    ++report.warm_entries_checked;
  }

  if (!s.solved_) return report;

  // Fact deltas fold into the memo lazily (`FoldDirtyIntoPending` at the
  // next solve entry), so between a delta and its solve a component
  // holding a `dirty_` atom is memo-valid yet already has a changed rule
  // set — legitimately so, because every read path folds first. The
  // audit's fixpoint check must treat those components (and components
  // fed by them) as pending, not corrupted.
  std::vector<uint8_t> pending(bound, 0);
  for (AtomId a : s.dirty_) {
    if (a < covered) pending[g.ComponentOf(a)] = 1;
  }
  auto effectively_valid = [&](uint32_t c) {
    return s.memo_.Valid(c) && pending[c] == 0;
  };

  // -- 3 + 5. Fixpoint, mirror, and stage checks on clean components ----
  const bool levels = s.opts_.compute_levels;
  solver::TruthTape scratch_tape = s.tape_;
  solver::StageTape scratch_stages = s.stape_;
  SolverDiagnostics scratch_diag;
  for (uint32_t c : live) {
    if (!effectively_valid(c)) continue;
    const std::span<const AtomId> atoms = g.Atoms(c);
    bool in_bounds = true;
    for (AtomId a : atoms) {
      if (a >= s.tape_.size()) {
        Fail(&report, StrCat("valid component ", c, " atom ", a,
                             " beyond the tape (", s.tape_.size(), ")"));
        in_bounds = false;
      }
    }
    if (!in_bounds) continue;

    // -- 5. mirror + stage-sign consistency (cheap, every valid comp) --
    for (AtomId a : atoms) {
      const TruthValue v = s.tape_.Value(a);
      if (a < s.model_.model.atom_count() && s.model_.model.Value(a) != v) {
        Fail(&report, StrCat("atom ", a, ": mirror value ",
                             ValueInt(s.model_.model.Value(a)),
                             " != tape value ", ValueInt(v)));
      }
      if (!levels || a >= s.stape_.size()) continue;
      const uint32_t ts = s.stape_.true_stage[a];
      const uint32_t fs = s.stape_.false_stage[a];
      const bool sign_ok = (v == TruthValue::kTrue && ts >= 1 && fs == 0) ||
                           (v == TruthValue::kFalse && fs >= 1 && ts == 0) ||
                           (v == TruthValue::kUndefined && ts == 0 && fs == 0);
      if (!sign_ok) {
        Fail(&report, StrCat("atom ", a, ": stages (", ts, ",", fs,
                             ") inconsistent with value ", ValueInt(v)));
      }
      if (s.model_.has_levels && a < s.model_.true_stage.size() &&
          (s.model_.true_stage[a] != ts || s.model_.false_stage[a] != fs)) {
        Fail(&report, StrCat("atom ", a, ": mirror stages (",
                             s.model_.true_stage[a], ",",
                             s.model_.false_stage[a], ") != tape stages (",
                             ts, ",", fs, ")"));
      }
    }

    // -- 3. fixpoint re-check, inputs permitting ----------------------
    // The memo's closure invariant only promises c's values once every
    // stale component below it re-solved, so a valid component with a
    // stale input is skipped, not failed.
    bool inputs_clean = true;
    for (AtomId a : atoms) {
      for (RuleId r : gp.RulesFor(a)) {
        if (!RuleEnabledIn(&s.disabled_, r)) continue;
        const GroundRule& rule = gp.rules()[r];
        for (AtomId b : rule.pos) {
          const uint32_t bc = g.ComponentOf(b);
          if (bc != c && !effectively_valid(bc)) inputs_clean = false;
        }
        for (AtomId b : rule.neg) {
          const uint32_t bc = g.ComponentOf(b);
          if (bc != c && !effectively_valid(bc)) inputs_clean = false;
        }
        if (!inputs_clean) break;
      }
      if (!inputs_clean) break;
    }
    if (!inputs_clean) {
      ++report.components_skipped;
      continue;
    }

    for (AtomId a : atoms) scratch_tape.SetUndefined(a);
    solver::SolveComponent(gp, g, c, &s.disabled_, &scratch_tape,
                           levels ? &scratch_stages : nullptr, &scratch_diag);
    for (AtomId a : atoms) {
      if (scratch_tape.Value(a) != s.tape_.Value(a)) {
        Fail(&report, StrCat("component ", c, " is not a fixpoint: atom ", a,
                             " re-solves to ",
                             ValueInt(scratch_tape.Value(a)), ", tape holds ",
                             ValueInt(s.tape_.Value(a))));
      }
      if (levels && (scratch_stages.true_stage[a] != s.stape_.true_stage[a] ||
                     scratch_stages.false_stage[a] !=
                         s.stape_.false_stage[a])) {
        Fail(&report, StrCat("component ", c, ": atom ", a,
                             " stages re-solve to (",
                             scratch_stages.true_stage[a], ",",
                             scratch_stages.false_stage[a],
                             "), tape holds (", s.stape_.true_stage[a], ",",
                             s.stape_.false_stage[a], ")"));
      }
    }
    // Restore the scratch slots so each component is checked against the
    // maintained state independently — a (legitimate or buggy) deviation
    // in one component must not cascade into its dependents' checks.
    for (AtomId a : atoms) {
      scratch_tape.SetValue(a, s.tape_.Value(a));
      if (levels) {
        scratch_stages.true_stage[a] = s.stape_.true_stage[a];
        scratch_stages.false_stage[a] = s.stape_.false_stage[a];
      }
    }
    ++report.components_checked;
  }
  return report;
}

AuditReport ServingAuditor::Audit(serve::ServingSolver& server) {
  // Quiesce the writer: between batches the tapes, builder, and epoch
  // store are stable; live readers only pin/read immutable snapshots.
  server.Pause();
  const IncrementalSolver& s = *server.solver_;
  AuditReport report = SolverAuditor::Audit(s);
  report.serving_audited = true;

  const serve::EpochStore& store = server.epochs_;
  const std::shared_ptr<const serve::Snapshot>& snap = store.current_;
  if (snap == nullptr) {
    Fail(&report, "serving: no published snapshot");
    server.Resume();
    return report;
  }
  const uint64_t current_epoch = store.current_epoch();
  if (snap->epoch_ != current_epoch) {
    Fail(&report, StrCat("serving: current snapshot epoch ", snap->epoch_,
                         " != published epoch ", current_epoch));
  }

  // 1. Published-snapshot fidelity against the quiesced tapes. With the
  // solver audit's independent per-component re-solve above, equality
  // here certifies the snapshot bit-identical to a fresh solve of the
  // epoch's program state. An aborted pass leaves the tapes legitimately
  // ahead (folded, unpublished deltas): skip, do not fail.
  if (server.tape_consistent_) {
    const solver::TruthTape& tape = s.tape();
    const solver::StageTape& stape = s.stage_tape();
    if (snap->atom_count_ != tape.size()) {
      Fail(&report, StrCat("serving: snapshot covers ", snap->atom_count_,
                           " atoms, tape holds ", tape.size()));
    } else {
      for (size_t a = 0; a < snap->atom_count_; ++a) {
        const AtomId id = static_cast<AtomId>(a);
        const serve::SnapshotAnswer got = snap->Query(id);
        if (got.value != tape.Value(id)) {
          Fail(&report,
               StrCat("serving: snapshot value of atom ", a, " is ",
                      ValueInt(got.value), ", tape says ",
                      ValueInt(tape.Value(id))));
          continue;
        }
        if (snap->has_levels_ &&
            (got.true_stage != stape.true_stage[id] ||
             got.false_stage != stape.false_stage[id])) {
          Fail(&report,
               StrCat("serving: snapshot stages of atom ", a, " are (",
                      got.true_stage, ", ", got.false_stage,
                      "), tape says (", stape.true_stage[id], ", ",
                      stape.false_stage[id], ")"));
          continue;
        }
        ++report.serving_atoms_checked;
      }
    }

    // 2. Copy-on-intern index fidelity against the atom registry.
    const GroundProgram& gp = s.program();
    if (snap->index_ == nullptr) {
      Fail(&report, "serving: snapshot carries no atom index");
    } else if (snap->index_->terms.size() != snap->atom_count_) {
      Fail(&report, StrCat("serving: index covers ",
                           snap->index_->terms.size(), " atoms, snapshot ",
                           snap->atom_count_));
    } else {
      for (size_t a = 0; a < snap->atom_count_; ++a) {
        const AtomId id = static_cast<AtomId>(a);
        const Term* t = snap->index_->terms[a];
        if (t != gp.AtomTerm(id)) {
          Fail(&report, StrCat("serving: index term of atom ", a,
                               " disagrees with the registry"));
        } else if (auto found = snap->index_->Find(t);
                   !found.has_value() || *found != id) {
          Fail(&report,
               StrCat("serving: index lookup of atom ", a,
                      " does not round-trip"));
        }
      }
    }
  }

  // 3. Reclamation safety: pooled pages are exclusively owned, and every
  // recorded reclaim was justified by the EBR horizon.
  for (const std::shared_ptr<serve::Page>& p : server.builder_.pool_) {
    if (p.use_count() != 1) {
      Fail(&report, StrCat("serving: pooled page reachable elsewhere "
                           "(use_count ",
                           p.use_count(), ")"));
    }
    ++report.serving_pool_pages_checked;
  }
  for (const serve::EpochStore::ReclaimRecord& r : store.reclaim_log_) {
    if (r.epoch >= r.min_pin) {
      Fail(&report, StrCat("serving: epoch ", r.epoch,
                           " reclaimed at min-pin horizon ", r.min_pin));
    }
    ++report.serving_reclaims_checked;
  }

  // 4. Pin/ring integrity: every live pin names a published epoch whose
  // ring slot still holds the matching snapshot.
  for (const auto& slot : store.slots_) {
    if (slot.used.load(std::memory_order_acquire) == 0) continue;
    const uint64_t pin = slot.pin.load(std::memory_order_seq_cst);
    if (pin == serve::EpochStore::kNotPinned) continue;
    if (pin == 0 || pin > current_epoch) {
      Fail(&report, StrCat("serving: reader pinned unpublished epoch ",
                           pin, " (current ", current_epoch, ")"));
      continue;
    }
    const std::shared_ptr<const serve::Snapshot>& ringed =
        store.ring_[pin % serve::EpochStore::kRingSize];
    if (ringed == nullptr) {
      Fail(&report, StrCat("serving: ring slot of pinned epoch ", pin,
                           " was cleared"));
    } else if (ringed->epoch_ != pin) {
      Fail(&report, StrCat("serving: ring slot of pinned epoch ", pin,
                           " holds epoch ", ringed->epoch_));
    }
  }

  server.Resume();
  return report;
}

}  // namespace gsls::check
