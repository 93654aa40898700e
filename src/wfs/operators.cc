#include "wfs/operators.h"

#include <vector>

namespace gsls {

DenseBitset TpStep(const GroundProgram& gp, const Interpretation& interp) {
  DenseBitset out(gp.atom_count());
  for (RuleId rid = 0; rid < gp.rule_count(); ++rid) {
    const RuleView r = gp.rule(rid);
    bool fires = true;
    for (AtomId a : r.pos) {
      if (!interp.IsTrue(a)) {
        fires = false;
        break;
      }
    }
    if (fires) {
      for (AtomId a : r.neg) {
        if (!interp.IsFalse(a)) {
          fires = false;
          break;
        }
      }
    }
    if (fires) out.Set(r.head);
  }
  return out;
}

DenseBitset TpStar(const GroundProgram& gp, const Interpretation& interp) {
  // Counting algorithm: unmet[r] = number of positive body atoms of rule r
  // not yet derived. Rules whose negative body is not satisfied by `interp`
  // are disabled outright.
  size_t n = gp.atom_count();
  DenseBitset derived(n);
  std::vector<uint32_t> unmet(gp.rule_count(), 0);
  std::vector<AtomId> queue;

  auto derive = [&](AtomId a) {
    if (!derived.Test(a)) {
      derived.Set(a);
      queue.push_back(a);
    }
  };

  for (RuleId rid = 0; rid < gp.rule_count(); ++rid) {
    const RuleView r = gp.rule(rid);
    bool enabled = true;
    for (AtomId a : r.neg) {
      if (!interp.IsFalse(a)) {
        enabled = false;
        break;
      }
    }
    if (!enabled) {
      unmet[rid] = UINT32_MAX;  // never fires
      continue;
    }
    // Positive atoms already true in `interp` count as met only when
    // derived here? No: T̃ starts from I, so atoms true in I are available.
    uint32_t count = 0;
    for (AtomId a : r.pos) {
      if (!interp.IsTrue(a)) ++count;
    }
    unmet[rid] = count;
    if (count == 0) derive(r.head);
  }
  // Atoms true in `interp` are part of T̃'s start set.
  for (AtomId a = 0; a < n; ++a) {
    if (interp.IsTrue(a)) derive(a);
  }
  // But rules counted interp-true atoms as met already; only propagate
  // derivations of atoms that were NOT true in interp.
  size_t qi = 0;
  while (qi < queue.size()) {
    AtomId a = queue[qi++];
    if (interp.IsTrue(a)) continue;  // already discounted in unmet[]
    for (RuleId rid : gp.PositiveOccurrences(a)) {
      if (unmet[rid] == UINT32_MAX || unmet[rid] == 0) continue;
      // A rule may mention `a` several times positively, but bodies are
      // deduplicated by AddRule, so one decrement per occurrence list entry
      // is exact.
      if (--unmet[rid] == 0) derive(gp.rule(rid).head);
    }
  }
  return derived;
}

DenseBitset GreatestUnfoundedSet(const GroundProgram& gp,
                                 const Interpretation& interp) {
  // The complement of U_P(I) is the least set S such that p ∈ S whenever
  // some rule for p has (a) no body literal whose complement is in I and
  // (b) all positive body atoms in S. Compute S by counting, then invert.
  size_t n = gp.atom_count();
  DenseBitset supported(n);
  std::vector<uint32_t> unmet(gp.rule_count(), 0);
  std::vector<AtomId> queue;

  auto support = [&](AtomId a) {
    if (!supported.Test(a)) {
      supported.Set(a);
      queue.push_back(a);
    }
  };

  for (RuleId rid = 0; rid < gp.rule_count(); ++rid) {
    const RuleView r = gp.rule(rid);
    bool enabled = true;
    // (a) no witness of type 1: complement of a body literal in I.
    for (AtomId a : r.pos) {
      if (interp.IsFalse(a)) {
        enabled = false;
        break;
      }
    }
    if (enabled) {
      for (AtomId a : r.neg) {
        if (interp.IsTrue(a)) {
          enabled = false;
          break;
        }
      }
    }
    if (!enabled) {
      unmet[rid] = UINT32_MAX;
      continue;
    }
    unmet[rid] = static_cast<uint32_t>(r.pos.size());
    if (r.pos.empty()) support(r.head);
  }
  size_t qi = 0;
  while (qi < queue.size()) {
    AtomId a = queue[qi++];
    for (RuleId rid : gp.PositiveOccurrences(a)) {
      if (unmet[rid] == UINT32_MAX || unmet[rid] == 0) continue;
      if (--unmet[rid] == 0) support(gp.rule(rid).head);
    }
  }
  DenseBitset unfounded(n);
  for (AtomId a = 0; a < n; ++a) {
    if (!supported.Test(a)) unfounded.Set(a);
  }
  return unfounded;
}

Interpretation WpStep(const GroundProgram& gp, const Interpretation& interp) {
  Interpretation out(gp.atom_count());
  DenseBitset derived = TpStep(gp, interp);
  out.mutable_true_set().UnionWith(derived);
  DenseBitset unfounded = GreatestUnfoundedSet(gp, interp);
  out.mutable_false_set().UnionWith(unfounded);
  return out;
}

bool IsUnfoundedSet(const GroundProgram& gp, const Interpretation& interp,
                    const DenseBitset& candidate) {
  for (AtomId p = 0; p < gp.atom_count(); ++p) {
    if (!candidate.Test(p)) continue;
    for (RuleId rid : gp.RulesFor(p)) {
      const RuleView r = gp.rule(rid);
      bool has_witness = false;
      for (AtomId a : r.pos) {
        if (interp.IsFalse(a) || candidate.Test(a)) {
          has_witness = true;
          break;
        }
      }
      if (!has_witness) {
        for (AtomId a : r.neg) {
          if (interp.IsTrue(a)) {
            has_witness = true;
            break;
          }
        }
      }
      if (!has_witness) return false;
    }
  }
  return true;
}

}  // namespace gsls
