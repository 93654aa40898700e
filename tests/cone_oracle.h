#ifndef GSLS_TESTS_CONE_ORACLE_H_
#define GSLS_TESTS_CONE_ORACLE_H_

// Cone-cost oracle: which components a change-pruned cone pass must
// re-solve after a batch of fact toggles, derived from two fresh solves
// alone — no look at the pass itself. Shared by the delta (up-cone) and
// query (down-cone) cost tests.

#include <cstdint>
#include <set>
#include <vector>

#include "solver/incremental.h"
#include "util/rng.h"

namespace gsls::testing {

/// Atoms whose value or either V_P stage differs between two leveled
/// solves over the same atoms.
inline std::vector<AtomId> MovedAtoms(const WfsModel& before,
                                      const WfsModel& after) {
  std::vector<AtomId> moved;
  for (AtomId a = 0; a < after.model.atom_count(); ++a) {
    if (before.model.Value(a) != after.model.Value(a) ||
        before.true_stage[a] != after.true_stage[a] ||
        before.false_stage[a] != after.false_stage[a]) {
      moved.push_back(a);
    }
  }
  return moved;
}

/// Every component holding a `dirty` atom, plus the head component of
/// every enabled rule that mentions a `moved` atom of another component:
/// exactly what the change-pruned pass owes after the batch.
inline std::set<uint32_t> OwedComponents(const IncrementalSolver& inc,
                                         const std::vector<AtomId>& dirty,
                                         const std::vector<AtomId>& moved) {
  const AtomDependencyGraph& g = *inc.graph();
  const GroundProgram& gp = inc.program();
  std::set<uint32_t> owed;
  for (AtomId a : dirty) owed.insert(g.ComponentOf(a));
  for (AtomId a : moved) {
    for (std::span<const RuleId> occ :
         {gp.PositiveOccurrences(a), gp.NegativeOccurrences(a)}) {
      for (RuleId r : occ) {
        if (!inc.RuleEnabled(r)) continue;
        const uint32_t hc = g.ComponentOf(gp.rules()[r].head);
        if (hc != g.ComponentOf(a)) owed.insert(hc);
      }
    }
  }
  return owed;
}

/// The components `atom`'s truth can depend on: its own, then those of
/// the body atoms of enabled rules, transitively.
inline std::set<uint32_t> DownCone(const IncrementalSolver& inc,
                                   AtomId atom) {
  const AtomDependencyGraph& g = *inc.graph();
  const GroundProgram& gp = inc.program();
  std::set<uint32_t> cone = {g.ComponentOf(atom)};
  std::vector<uint32_t> work(cone.begin(), cone.end());
  while (!work.empty()) {
    const uint32_t c = work.back();
    work.pop_back();
    for (AtomId a : g.Atoms(c)) {
      for (RuleId r : gp.RulesFor(a)) {
        if (!inc.RuleEnabled(r)) continue;
        for (const std::vector<AtomId>* body :
             {&gp.rules()[r].pos, &gp.rules()[r].neg}) {
          for (AtomId b : *body) {
            if (cone.insert(g.ComponentOf(b)).second) {
              work.push_back(g.ComponentOf(b));
            }
          }
        }
      }
    }
  }
  return cone;
}

/// The components passes re-finalized since the last take, read off the
/// resolve log (the solver must have `EnableResolveLog` on).
inline std::set<uint32_t> ResolvedComponents(IncrementalSolver& inc) {
  IncrementalSolver::ResolveLog log = inc.TakeResolveLog();
  std::set<uint32_t> comps;
  for (AtomId a : log.atoms) comps.insert(inc.graph()->ComponentOf(a));
  return comps;
}

/// Toggles one to four random atoms as facts (assert when absent, retract
/// when present); returns the toggled atoms.
inline std::vector<AtomId> ToggleRandomFacts(IncrementalSolver& inc,
                                             Rng& rng) {
  const int n = static_cast<int>(inc.program().atom_count());
  std::vector<AtomId> dirty;
  for (int k = rng.UniformInt(1, 4); k > 0; --k) {
    const AtomId a = static_cast<AtomId>(rng.UniformInt(0, n - 1));
    if (inc.HasFact(a)) {
      inc.RetractAtom(a);
    } else {
      inc.AssertAtom(a);
    }
    dirty.push_back(a);
  }
  return dirty;
}

}  // namespace gsls::testing

#endif  // GSLS_TESTS_CONE_ORACLE_H_
