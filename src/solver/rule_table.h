#ifndef GSLS_SOLVER_RULE_TABLE_H_
#define GSLS_SOLVER_RULE_TABLE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "ground/ground_program.h"
#include "solver/truth_tape.h"
#include "util/cancel.h"
#include "util/csr.h"

namespace gsls::solver {

/// Dense id of an atom within one component (its rank in
/// `AtomDependencyGraph::Atoms`).
using LocalAtom = uint32_t;
/// Dense id of a rule within one `RuleTable`.
using LocalRule = uint32_t;

inline constexpr LocalRule kNoRule = UINT32_MAX;

/// A ground rule restricted to one strongly connected component. External
/// body literals (atoms of lower components, whose well-founded values are
/// final by the scheduling order) are partially evaluated at compile time:
/// a decided-true positive or decided-false negative is dropped, a
/// decided-false positive or decided-true negative suppresses the rule
/// entirely, and externals that ended *undefined* are folded into
/// `undef_external` — they can never fire the rule but keep it usable as
/// support.
///
/// The internal body literals themselves live in the `RuleTable`'s shared
/// pool (`PosBody`/`NegBody` spans), not here: one contiguous array for
/// the whole component keeps the propagation loop and the source-pointer
/// floods on linear memory and makes the rule record a fixed-size POD.
struct CompiledRule {
  LocalAtom head = 0;
  uint32_t pos_begin = 0;  ///< start of internal positives in the body pool
  uint32_t neg_begin = 0;  ///< end of positives == start of negatives
  uint32_t body_end = 0;   ///< end of negatives
  uint32_t undef_external = 0;

  /// Watched truth counter: body literals not yet satisfied (internal
  /// positives not yet true + internal negatives not yet false + undefined
  /// externals, which never satisfy). The rule fires its head true when
  /// this reaches 0.
  uint32_t unsat = 0;
  /// Some body literal became false (positive atom falsified / negative
  /// atom derived true): the rule can neither fire nor support.
  bool dead = false;
};

/// The live rules of one component, with watched counters and dense
/// occurrence indexes — the component-local mirror of `GroundProgram`'s
/// rule indexes that the propagation loop and the source-pointer detector
/// run on. All storage is flat: one body-literal pool plus three CSR
/// indexes (`util/csr.h`), built in two counting passes with zero per-rule
/// reallocation.
class RuleTable {
 public:
  /// Compiles the rules whose head lies in component `comp` of `graph`,
  /// reading already-final lower-component values from `global`. Rules
  /// suppressed by a false external witness are not added at all, and
  /// neither are rules flagged in the optional `disabled` mask (one byte
  /// per global `RuleId`; how `IncrementalSolver` hides retracted facts).
  /// Compilation itself is cancellable: it ticks `cancel` every stride,
  /// and on a trip resets to a valid *empty* table with `aborted()` set —
  /// no tape byte has been written at that point, so the caller can treat
  /// it exactly like an abort at the component's entry checkpoint.
  /// With `keep_all` true, the table is compiled for *warm reuse* across
  /// deltas (solver/warm_component.h): every candidate rule is retained —
  /// disabled and externally-suppressed rules included, carried with
  /// `CompiledRule::dead` set — together with its global `RuleId`, its
  /// external body literals (global ids, in a separate pool), a snapshot
  /// of the disabled-mask bytes, a global->local rule index, and a sorted
  /// external-atom index with a value snapshot and an occurrence CSR. A
  /// later delta then *patches* this table (`RecomputeRule`) instead of
  /// recompiling it: each recorded mask flip and external move is
  /// reconciled against its snapshot and maps to exactly the touched
  /// rules. Its live rules, in order, are the default table's rules.
  RuleTable(const GroundProgram& gp, const AtomDependencyGraph& graph,
            uint32_t comp, const TruthTape& global,
            const std::vector<uint8_t>* disabled = nullptr,
            CancelCtx* cancel = nullptr, bool keep_all = false);

  /// True iff a cancellation checkpoint tripped mid-compile; the table is
  /// then empty and must not be solved.
  bool aborted() const { return aborted_; }

  size_t atom_count() const { return atoms_.size(); }
  size_t rule_count() const { return rules_.size(); }

  AtomId GlobalAtom(LocalAtom a) const { return atoms_[a]; }

  CompiledRule& rule(LocalRule r) { return rules_[r]; }
  const CompiledRule& rule(LocalRule r) const { return rules_[r]; }

  /// Internal positive body atoms of `r` (a slice of the shared pool).
  std::span<const LocalAtom> PosBody(LocalRule r) const {
    const CompiledRule& c = rules_[r];
    return std::span<const LocalAtom>(body_.data() + c.pos_begin,
                                      c.neg_begin - c.pos_begin);
  }
  /// Internal negative body atoms of `r`.
  std::span<const LocalAtom> NegBody(LocalRule r) const {
    const CompiledRule& c = rules_[r];
    return std::span<const LocalAtom>(body_.data() + c.neg_begin,
                                      c.body_end - c.neg_begin);
  }

  /// Rules whose head is `a`.
  std::span<const LocalRule> RulesFor(LocalAtom a) const {
    return rules_for_.Row(a);
  }
  /// Rules where `a` occurs in a positive body position.
  std::span<const LocalRule> PositiveOccurrences(LocalAtom a) const {
    return pos_occ_.Row(a);
  }
  /// Rules where `a` occurs in a negative body position.
  std::span<const LocalRule> NegativeOccurrences(LocalAtom a) const {
    return neg_occ_.Row(a);
  }

  // --- keep-all extensions (valid only when compiled with keep_all) ---

  /// Global `RuleId` of local rule `r`.
  RuleId GlobalRule(LocalRule r) const { return rids_[r]; }

  /// Local id of global rule `r`, or `kNoRule` when `r` is not a candidate
  /// of this component (binary search of the global->local index).
  LocalRule LocalRuleOf(RuleId r) const;

  /// External (lower-component) positive / negative body atoms of `r`, as
  /// global ids. Empty spans in default mode (externals are partially
  /// evaluated away there).
  std::span<const AtomId> ExtPos(LocalRule r) const {
    const ExtSpan& e = ext_spans_[r];
    return std::span<const AtomId>(ext_pool_.data() + e.pos_begin,
                                   e.neg_begin - e.pos_begin);
  }
  std::span<const AtomId> ExtNeg(LocalRule r) const {
    const ExtSpan& e = ext_spans_[r];
    return std::span<const AtomId>(ext_pool_.data() + e.neg_begin,
                                   e.end - e.neg_begin);
  }

  /// Sorted distinct external atoms of the component, with the tape-value
  /// snapshot (`TruthValue` as a byte) they were last reconciled against
  /// and the local rules each occurs in. The warm patcher reconciles only
  /// the externals recorded as moved (`ReconcileExternal`); the auditor
  /// diffs every snapshot against the live tape.
  size_t external_count() const { return ext_atoms_.size(); }
  AtomId ExternalAtom(uint32_t i) const { return ext_atoms_[i]; }
  uint8_t ExternalSnapshot(uint32_t i) const { return ext_vals_[i]; }
  std::span<const LocalRule> ExternalOccurrences(uint32_t i) const {
    return ext_occ_.Row(i);
  }

  /// Index of external atom `a` (binary search of the sorted atoms), or
  /// `kNoExternal` when `a` occurs in no rule body of this component.
  static constexpr uint32_t kNoExternal = UINT32_MAX;
  uint32_t ExternalIndexOf(AtomId a) const;

  /// True iff some occurrence of external `i` is an enabled rule. Only then
  /// is its tape byte read: an enabled edge orders its component before
  /// this one, while a pool pass may be re-solving a component that only
  /// disabled rules connect.
  bool HasEnabledOccurrence(uint32_t i,
                            const std::vector<uint8_t>* disabled) const;

  /// Snapshot of an external that was never read (every occurrence was
  /// disabled at compile): differs from every `TruthValue` code.
  static constexpr uint8_t kUnread = 0xFF;

  /// Disabled-mask byte of `GlobalRule(r)` as of the last reconcile.
  uint8_t DisabledSnapshot(LocalRule r) const { return disabled_snap_[r]; }

  /// Tape value of `a` encoded as the snapshot byte.
  static uint8_t Code(const TruthTape& tape, AtomId a) {
    return static_cast<uint8_t>(tape.Value(a));
  }

  /// Recomputes `rule(r)`'s `dead` / `undef_external` / `unsat` from the
  /// current mask, the live tape values of its external literals, and the
  /// live tape values of its internal literals — the at-rest counter
  /// values the solve loop's decrements would have produced. A disabled
  /// rule only turns dead: dead rules' counters may be stale, and its
  /// externals must not be read. Keep-all only.
  void RecomputeRule(LocalRule r, const TruthTape& global,
                     const std::vector<uint8_t>* disabled);

  /// Reconciles rule `r`'s disabled-mask snapshot with the live mask;
  /// true iff it had drifted. Keep-all only.
  bool ReconcileDisabled(LocalRule r, const std::vector<uint8_t>* disabled);

  /// Reconciles external `i`'s value snapshot with the live tape; true iff
  /// it had drifted. Keep-all only.
  bool ReconcileExternal(uint32_t i, const TruthTape& global);

 private:
  struct ExtSpan {
    uint32_t pos_begin = 0;
    uint32_t neg_begin = 0;
    uint32_t end = 0;
  };

  /// The two-pass compile (see the constructor comment), instantiated
  /// once per table kind; `kKeepAll` adds the retained-rule metadata.
  template <bool kKeepAll>
  void Compile(const GroundProgram& gp, const AtomDependencyGraph& graph,
               uint32_t comp, const TruthTape& global,
               const std::vector<uint8_t>* disabled, CancelCtx* cancel);

  /// Resets to a coherent empty table (no rules, empty CSR rows) after a
  /// mid-compile cancellation trip.
  void AbortCompile();

  bool aborted_ = false;
  std::vector<AtomId> atoms_;  ///< local id -> global id
  std::vector<CompiledRule> rules_;
  std::vector<LocalAtom> body_;  ///< shared pool: [pos | neg] per rule
  Csr<LocalRule> rules_for_;
  Csr<LocalRule> pos_occ_;
  Csr<LocalRule> neg_occ_;

  // Keep-all metadata (empty in default mode).
  std::vector<RuleId> rids_;          ///< local rule -> global rule
  /// (global rule, local rule) sorted by global id: `LocalRuleOf`.
  std::vector<std::pair<RuleId, LocalRule>> local_of_;
  std::vector<AtomId> ext_pool_;      ///< [ext pos | ext neg] per rule
  std::vector<ExtSpan> ext_spans_;    ///< per rule, into ext_pool_
  std::vector<uint8_t> disabled_snap_;  ///< per rule: mask byte snapshot
  std::vector<AtomId> ext_atoms_;     ///< sorted distinct external atoms
  std::vector<uint8_t> ext_vals_;     ///< per ext atom: value snapshot
  Csr<LocalRule> ext_occ_;            ///< ext atom index -> rules
};

}  // namespace gsls::solver

#endif  // GSLS_SOLVER_RULE_TABLE_H_
