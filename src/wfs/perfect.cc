#include "wfs/perfect.h"

#include <vector>

namespace gsls {

Result<Interpretation> ComputePerfectModel(const GroundProgram& gp,
                                           const Stratification& strat) {
  if (!strat.stratified) {
    return Status::FailedPrecondition("program is not stratified");
  }
  size_t n = gp.atom_count();
  std::vector<int> atom_stratum(n, 0);
  for (AtomId a = 0; a < n; ++a) {
    auto it = strat.strata.find(gp.AtomTerm(a)->functor());
    // Atoms of predicates absent from the dependency graph (possible after
    // restriction) sit at stratum 0.
    atom_stratum[a] = it == strat.strata.end() ? 0 : it->second;
  }
  Interpretation model(n);
  int stratum_count = strat.stratum_count == 0 ? 1 : strat.stratum_count;
  for (int s = 0; s < stratum_count; ++s) {
    // Least fixpoint of the rules whose head lies in stratum s, with body
    // literals of lower strata read from `model`. Stratification guarantees
    // negative body literals refer only to strictly lower strata and
    // positive ones to strata <= s.
    std::vector<uint32_t> unmet(gp.rule_count(), UINT32_MAX);
    std::vector<AtomId> queue;
    DenseBitset derived(n);
    auto derive = [&](AtomId a) {
      if (!derived.Test(a)) {
        derived.Set(a);
        queue.push_back(a);
      }
    };
    for (RuleId rid = 0; rid < gp.rule_count(); ++rid) {
      const RuleView r = gp.rule(rid);
      if (atom_stratum[r.head] != s) continue;
      bool enabled = true;
      for (AtomId a : r.neg) {
        if (!model.IsFalse(a)) {  // lower stratum, already decided
          enabled = false;
          break;
        }
      }
      if (enabled) {
        for (AtomId a : r.pos) {
          if (atom_stratum[a] < s && !model.IsTrue(a)) {
            enabled = false;
            break;
          }
        }
      }
      if (!enabled) continue;
      uint32_t count = 0;
      for (AtomId a : r.pos) {
        if (atom_stratum[a] == s) ++count;
      }
      unmet[rid] = count;
      if (count == 0) derive(r.head);
    }
    size_t qi = 0;
    while (qi < queue.size()) {
      AtomId a = queue[qi++];
      for (RuleId rid : gp.PositiveOccurrences(a)) {
        if (unmet[rid] == UINT32_MAX || unmet[rid] == 0) continue;
        if (--unmet[rid] == 0) derive(gp.rule(rid).head);
      }
    }
    // Close the stratum: derived atoms true, the rest of the stratum false.
    for (AtomId a = 0; a < n; ++a) {
      if (atom_stratum[a] != s) continue;
      if (derived.Test(a)) {
        model.SetTrue(a);
      } else {
        model.SetFalse(a);
      }
    }
  }
  return model;
}

}  // namespace gsls
