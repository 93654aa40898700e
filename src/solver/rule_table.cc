#include "solver/rule_table.h"

#include <algorithm>

namespace gsls::solver {

template <bool kKeepAll>
void RuleTable::Compile(const GroundProgram& gp,
                        const AtomDependencyGraph& graph, uint32_t comp,
                        const TruthTape& global,
                        const std::vector<uint8_t>* disabled,
                        CancelCtx* cancel) {
  StridedCheckpoint tick(cancel);
  const uint32_t n = static_cast<uint32_t>(atoms_.size());

  // Pass 1: partially evaluate every candidate rule against the final
  // lower-component values, recording which survive and how many internal
  // literals each keeps. Nothing is stored per-rule yet except the
  // fixed-size records — all degree counts land in the CSR builders.
  // The default table drops a disabled rule unread and a suppressed one at
  // its first false witness. The keep-all table drops nothing: a disabled
  // rule or a false witness only sets `dead`, keeping the record patchable
  // when a later delta revives it, so its body scans run to the end and
  // the internal/external counts match pass 2's fills exactly. A disabled
  // rule's externals are counted but not read: no enabled edge orders
  // their components before this one, so a pool pass may be re-solving
  // them right now (its counters are recomputed when a flip revives it).
  struct Probe {
    RuleId rid;
    LocalAtom head;
    uint32_t npos;
    uint32_t nneg;
    uint32_t undef_external;
    bool dead;
  };
  std::vector<Probe> kept;
  size_t candidates = 0;
  for (LocalAtom local = 0; local < n; ++local) {
    candidates += gp.RulesFor(atoms_[local]).size();
  }
  kept.reserve(candidates);

  rules_for_.Reset(n);
  uint32_t body_total = 0;
  uint32_t ext_total = 0;
  for (LocalAtom local = 0; local < n; ++local) {
    if (tick.Tick()) { AbortCompile(); return; }
    for (RuleId rid : gp.RulesFor(atoms_[local])) {
      const bool enabled = RuleEnabledIn(disabled, rid);
      if (!kKeepAll && !enabled) continue;
      const RuleView r = gp.rule(rid);
      Probe probe{rid, local, 0, 0, 0, !enabled};
      uint32_t ext = 0;
      // One body half; an external whose value is `witness` falsifies it
      // (the rule can never matter).
      auto scan = [&](std::span<const AtomId> body, TruthValue witness,
                      uint32_t* internal) {
        for (AtomId b : body) {
          if (graph.ComponentOf(b) == comp) {
            ++*internal;
            continue;
          }
          if constexpr (kKeepAll) {
            ++ext;
            if (!enabled) continue;
          }
          const TruthValue v = global.Value(b);
          if (v == witness) {
            probe.dead = true;
            if constexpr (!kKeepAll) return;
          } else if (v == TruthValue::kUndefined) {
            ++probe.undef_external;
          }
        }
      };
      scan(r.pos, TruthValue::kFalse, &probe.npos);
      if (kKeepAll || !probe.dead) scan(r.neg, TruthValue::kTrue, &probe.nneg);
      if (!kKeepAll && probe.dead) continue;
      rules_for_.CountAt(local);
      body_total += probe.npos + probe.nneg;
      ext_total += ext;
      kept.push_back(probe);
    }
  }

  // Sizes are now exact: lay out the rule records and the body pool, then
  // fill the pool in a second scan of the kept bodies (suppression is
  // already decided, so this scan only classifies internal vs external).
  rules_.resize(kept.size());
  body_.resize(body_total);
  if constexpr (kKeepAll) {
    rids_.resize(kept.size());
    ext_spans_.resize(kept.size());
    disabled_snap_.assign(kept.size(), 0);
    ext_pool_.resize(ext_total);
  }
  rules_for_.FinishCounting();
  pos_occ_.Reset(n);
  neg_occ_.Reset(n);
  uint32_t cursor = 0;
  uint32_t ext_cursor = 0;
  for (LocalRule id = 0; id < kept.size(); ++id) {
    if (tick.Tick()) { AbortCompile(); return; }
    const Probe& probe = kept[id];
    const RuleView r = gp.rule(probe.rid);
    CompiledRule& compiled = rules_[id];
    compiled.head = probe.head;
    compiled.undef_external = probe.undef_external;
    // At-rest counters: every internal literal is undefined at the start
    // of a component solve. Dead keep-all rules keep the at-rest value too
    // — a revival recomputes them (`RecomputeRule`) before they re-enter
    // the game, because the propagation loop never decrements dead rules.
    compiled.unsat = probe.npos + probe.nneg + probe.undef_external;
    compiled.dead = probe.dead;
    auto fill = [&](std::span<const AtomId> body, Csr<LocalRule>* occ) {
      for (AtomId b : body) {
        if (graph.ComponentOf(b) == comp) {
          LocalAtom lb = graph.LocalIndexOf(b);
          body_[cursor++] = lb;
          occ->CountAt(lb);
        } else if constexpr (kKeepAll) {
          ext_pool_[ext_cursor++] = b;
        }
      }
    };
    compiled.pos_begin = cursor;
    if constexpr (kKeepAll) {
      rids_[id] = probe.rid;
      disabled_snap_[id] = !RuleEnabledIn(disabled, probe.rid);
      ext_spans_[id].pos_begin = ext_cursor;
    }
    fill(r.pos, &pos_occ_);
    compiled.neg_begin = cursor;
    if constexpr (kKeepAll) ext_spans_[id].neg_begin = ext_cursor;
    fill(r.neg, &neg_occ_);
    compiled.body_end = cursor;
    if constexpr (kKeepAll) ext_spans_[id].end = ext_cursor;
    rules_for_.Fill(probe.head, id);
  }
  rules_for_.FinishFilling();

  // Occurrence payloads come straight off the flat pool — no third body
  // scan of the ground program.
  pos_occ_.FinishCounting();
  neg_occ_.FinishCounting();
  for (LocalRule id = 0; id < rules_.size(); ++id) {
    if (tick.Tick()) { AbortCompile(); return; }
    for (LocalAtom b : PosBody(id)) pos_occ_.Fill(b, id);
    for (LocalAtom b : NegBody(id)) neg_occ_.Fill(b, id);
  }
  pos_occ_.FinishFilling();
  neg_occ_.FinishFilling();
  if constexpr (!kKeepAll) return;

  // Global->local rule index: where a recorded mask flip lands.
  local_of_.resize(rids_.size());
  for (LocalRule id = 0; id < rids_.size(); ++id) {
    local_of_[id] = {rids_[id], id};
  }
  std::sort(local_of_.begin(), local_of_.end());

  // External-atom index: sorted distinct atoms, the occurrence CSR the
  // drift reconcile walks, and the value snapshot — `kUnread` for an atom
  // whose every occurrence is disabled (not read, as in pass 1).
  ext_atoms_.assign(ext_pool_.begin(), ext_pool_.end());
  std::sort(ext_atoms_.begin(), ext_atoms_.end());
  ext_atoms_.erase(std::unique(ext_atoms_.begin(), ext_atoms_.end()),
                   ext_atoms_.end());
  ext_occ_.Reset(ext_atoms_.size());
  for (LocalRule id = 0; id < rules_.size(); ++id) {
    const ExtSpan& e = ext_spans_[id];
    for (uint32_t k = e.pos_begin; k < e.end; ++k) {
      ext_occ_.CountAt(ExternalIndexOf(ext_pool_[k]));
    }
  }
  ext_occ_.FinishCounting();
  for (LocalRule id = 0; id < rules_.size(); ++id) {
    if (tick.Tick()) { AbortCompile(); return; }
    const ExtSpan& e = ext_spans_[id];
    for (uint32_t k = e.pos_begin; k < e.end; ++k) {
      ext_occ_.Fill(ExternalIndexOf(ext_pool_[k]), id);
    }
  }
  ext_occ_.FinishFilling();
  ext_vals_.resize(ext_atoms_.size());
  for (uint32_t i = 0; i < ext_atoms_.size(); ++i) {
    ext_vals_[i] = HasEnabledOccurrence(i, disabled)
                       ? Code(global, ext_atoms_[i])
                       : kUnread;
  }
}

RuleTable::RuleTable(const GroundProgram& gp, const AtomDependencyGraph& graph,
                     uint32_t comp, const TruthTape& global,
                     const std::vector<uint8_t>* disabled, CancelCtx* cancel,
                     bool keep_all) {
  std::span<const AtomId> members = graph.Atoms(comp);
  atoms_.assign(members.begin(), members.end());
  if (keep_all) {
    Compile<true>(gp, graph, comp, global, disabled, cancel);
  } else {
    Compile<false>(gp, graph, comp, global, disabled, cancel);
  }
}

void RuleTable::RecomputeRule(LocalRule r, const TruthTape& global,
                              const std::vector<uint8_t>* disabled) {
  CompiledRule& rule = rules_[r];
  if (!RuleEnabledIn(disabled, rids_[r])) {
    // Dead whatever its body holds; its externals are not read (see
    // `Compile`), and the flip that revives it recomputes it.
    rule.dead = true;
    return;
  }
  bool dead = false;
  uint32_t undef_ext = 0;
  for (AtomId b : ExtPos(r)) {
    if (global.IsFalse(b)) dead = true;
    else if (!global.IsTrue(b)) ++undef_ext;
  }
  for (AtomId b : ExtNeg(r)) {
    if (global.IsTrue(b)) dead = true;
    else if (!global.IsFalse(b)) ++undef_ext;
  }
  uint32_t unsat = 0;
  for (LocalAtom lb : PosBody(r)) {
    AtomId g = atoms_[lb];
    if (global.IsFalse(g)) dead = true;
    else if (!global.IsTrue(g)) ++unsat;
  }
  for (LocalAtom lb : NegBody(r)) {
    AtomId g = atoms_[lb];
    if (global.IsTrue(g)) dead = true;
    else if (!global.IsFalse(g)) ++unsat;
  }
  rule.dead = dead;
  rule.undef_external = undef_ext;
  rule.unsat = unsat + undef_ext;
}

LocalRule RuleTable::LocalRuleOf(RuleId r) const {
  auto it = std::lower_bound(
      local_of_.begin(), local_of_.end(), r,
      [](const std::pair<RuleId, LocalRule>& e, RuleId x) {
        return e.first < x;
      });
  return it != local_of_.end() && it->first == r ? it->second : kNoRule;
}

uint32_t RuleTable::ExternalIndexOf(AtomId a) const {
  auto it = std::lower_bound(ext_atoms_.begin(), ext_atoms_.end(), a);
  return it != ext_atoms_.end() && *it == a
             ? static_cast<uint32_t>(it - ext_atoms_.begin())
             : kNoExternal;
}

bool RuleTable::HasEnabledOccurrence(
    uint32_t i, const std::vector<uint8_t>* disabled) const {
  for (LocalRule r : ext_occ_.Row(i)) {
    if (RuleEnabledIn(disabled, rids_[r])) return true;
  }
  return false;
}

bool RuleTable::ReconcileDisabled(LocalRule r,
                                  const std::vector<uint8_t>* disabled) {
  const uint8_t now = !RuleEnabledIn(disabled, rids_[r]);
  if (disabled_snap_[r] == now) return false;
  disabled_snap_[r] = now;
  return true;
}

bool RuleTable::ReconcileExternal(uint32_t i, const TruthTape& global) {
  const uint8_t now = Code(global, ext_atoms_[i]);
  if (ext_vals_[i] == now) return false;
  ext_vals_[i] = now;
  return true;
}

void RuleTable::AbortCompile() {
  aborted_ = true;
  rules_.clear();
  body_.clear();
  rids_.clear();
  local_of_.clear();
  ext_pool_.clear();
  ext_spans_.clear();
  disabled_snap_.clear();
  ext_atoms_.clear();
  ext_vals_.clear();
  ext_occ_.Reset(0);
  ext_occ_.FinishCounting();
  const uint32_t n = static_cast<uint32_t>(atoms_.size());
  // All-empty CSR rows: Reset + FinishCounting with no counts leaves every
  // Row() a valid empty span, so a consumer that ignores `aborted()` still
  // sees a coherent (just empty) component.
  rules_for_.Reset(n);
  rules_for_.FinishCounting();
  pos_occ_.Reset(n);
  pos_occ_.FinishCounting();
  neg_occ_.Reset(n);
  neg_occ_.FinishCounting();
}

}  // namespace gsls::solver
