#ifndef GSLS_ANALYSIS_ATOM_DEPENDENCY_GRAPH_H_
#define GSLS_ANALYSIS_ATOM_DEPENDENCY_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ground/ground_program.h"

namespace gsls {

/// The atom-level dependency graph of a ground program, condensed into
/// strongly connected components: one node per registered ground atom, an
/// edge head -> body atom (of either sign) for every ground rule.
///
/// The predicate-level `DependencyGraph` over-approximates recursion on
/// nonground programs; this graph is exact on a grounding and is what the
/// SCC-stratified solver (src/solver/) schedules on. Construction is one
/// `ForEachScc` pass (analysis/scc.h): O(atoms + body literals).
///
/// With a `disabled` mask (one byte per `RuleId`, nonzero = the rule does
/// not exist), the graph is the condensation of the *enabled* subprogram —
/// the view `DynamicCondensation` (analysis/dynamic_condensation.h)
/// maintains under rule-level deltas, and the baseline
/// `IncrementalSolver::SolveFresh` builds from scratch.
class AtomDependencyGraph {
 public:
  explicit AtomDependencyGraph(const GroundProgram& gp,
                               const std::vector<uint8_t>* disabled = nullptr);

  /// Number of live strongly connected components. Every registered atom
  /// is in exactly one component (isolated atoms form singletons).
  uint32_t component_count() const {
    return static_cast<uint32_t>(size_.size() - free_.size());
  }

  /// Exclusive bound on component ids: per-component arrays are sized by
  /// this. A fresh build numbers its components densely (bound == count);
  /// `DynamicCondensation` keeps ids stable across repairs, so ids freed by
  /// merges leave holes (`free_ids()`) until a split or new atom reuses
  /// them.
  uint32_t id_bound() const { return static_cast<uint32_t>(size_.size()); }

  /// Ids below `id_bound()` that hold no atoms (freed by a merge). Empty
  /// on a fresh build.
  std::span<const uint32_t> free_ids() const { return free_; }

  /// Number of atoms the graph covers. A `GroundProgram` that has since
  /// interned more atoms is ahead of it by exactly those atoms (fact deltas
  /// never add dependency *edges* — unit rules have no body);
  /// `DynamicCondensation::AddAtoms` covers them as singleton components.
  size_t atom_count() const { return comp_of_.size(); }

  /// Component of `atom`. A fresh build numbers components in dependency
  /// order: every body atom of a rule whose head lies in component c
  /// belongs to a component with id <= c, with equality exactly for
  /// intra-component recursion, so processing ids in increasing order sees
  /// every lower (callee) component decided first. Under
  /// `DynamicCondensation` repairs ids stay put and only `Label` keeps the
  /// order.
  uint32_t ComponentOf(AtomId atom) const { return comp_of_[atom]; }

  /// Topological order label of live component `c`: every cross-component
  /// edge (body component -> head component) runs from a lower label to a
  /// strictly higher one, and live labels are distinct. A fresh build sets
  /// `Label(c) == c << 32`, leaving room for repairs to place split pieces
  /// between existing labels.
  uint64_t Label(uint32_t c) const { return label_[c]; }

  /// Rank of `atom` within `Atoms(ComponentOf(atom))`; gives each solver
  /// pass dense component-local ids for free.
  uint32_t LocalIndexOf(AtomId atom) const { return local_of_[atom]; }

  /// Atoms of component `c` (empty for a freed id).
  std::span<const AtomId> Atoms(uint32_t c) const {
    return std::span<const AtomId>(comp_atoms_.data() + begin_[c], size_[c]);
  }

  /// True iff some rule has its head and a *negative* body atom both in
  /// `c`: the component recurses through negation and needs the
  /// component-local alternating treatment.
  bool HasInternalNegation(uint32_t c) const { return internal_neg_[c] != 0; }

  /// True iff `c` contains more than one atom or an intra-component edge
  /// of either sign (a self-loop); such components need fixpoint
  /// iteration, while the rest reduce to direct 3-valued rule evaluation.
  bool IsRecursive(uint32_t c) const { return recursive_[c] != 0; }

  /// True iff no component has internal negation: exactly local
  /// stratification of the ground program (Przymusinski), on which the
  /// well-founded model is total.
  bool IsLocallyStratified() const;

  /// True iff every component is a single atom without a self-loop — the
  /// paper's "acyclic programs" effectiveness class (Sec. 7).
  bool IsAcyclic() const;

 private:
  /// The dynamic-SCC layer repairs this condensation in place on rule
  /// deltas (affected-region relabel, single-component split) instead of
  /// reconstructing it.
  friend class DynamicCondensation;

  AtomDependencyGraph() = default;  ///< for DynamicCondensation only

  /// The flag rule, applied to one enabled rule `r` whose head lies in
  /// component c: a body atom also in c makes c recursive, and a negative
  /// such atom also gives c internal negation. Flags only ever tighten.
  void ApplyFlagRule(const GroundRule& r);

  /// Recomputes both flags of component `c` from scratch: recursive when it
  /// has more than one atom, then `ApplyFlagRule` over the enabled rules of
  /// its atoms. Every atom's `ComponentOf` must already be final.
  void RecomputeFlags(const GroundProgram& gp,
                      const std::vector<uint8_t>* disabled, uint32_t c);

  std::vector<uint32_t> comp_of_;    ///< per atom
  std::vector<uint32_t> local_of_;   ///< per atom: rank within component
  std::vector<uint32_t> begin_;       ///< per component: slice offset
  std::vector<uint32_t> size_;        ///< per component: slice length
  std::vector<uint64_t> label_;       ///< per component: order label
  std::vector<uint32_t> free_;        ///< ids freed by merges
  std::vector<AtomId> comp_atoms_;    ///< slices; may hold dead space
  std::vector<uint8_t> internal_neg_;   ///< per component
  std::vector<uint8_t> recursive_;      ///< per component
};

}  // namespace gsls

#endif  // GSLS_ANALYSIS_ATOM_DEPENDENCY_GRAPH_H_
