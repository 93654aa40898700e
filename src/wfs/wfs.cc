#include "wfs/wfs.h"

namespace gsls {

WfsModel ComputeWfs(const GroundProgram& gp) {
  WfsModel out;
  size_t n = gp.atom_count();
  Interpretation current(n);
  while (true) {
    Interpretation next = WpStep(gp, current);
    // W_P is monotonic and the iteration starts at ∅, so the sequence is
    // increasing; union keeps that explicit under finite precision.
    next.mutable_true_set().UnionWith(current.true_set());
    next.mutable_false_set().UnionWith(current.false_set());
    ++out.iterations;
    if (next == current) break;
    current = std::move(next);
  }
  out.model = std::move(current);
  return out;
}

WfsStages ComputeWfsStages(const GroundProgram& gp) {
  WfsStages out;
  size_t n = gp.atom_count();
  out.true_stage.assign(n, 0);
  out.false_stage.assign(n, 0);
  Interpretation current(n);
  uint32_t alpha = 0;
  while (true) {
    ++alpha;
    DenseBitset derived = TpStar(gp, current);
    DenseBitset unfounded = GreatestUnfoundedSet(gp, current);
    Interpretation next(n);
    next.mutable_true_set().UnionWith(derived);
    next.mutable_true_set().UnionWith(current.true_set());
    next.mutable_false_set().UnionWith(unfounded);
    next.mutable_false_set().UnionWith(current.false_set());
    for (AtomId a = 0; a < n; ++a) {
      if (next.IsTrue(a) && out.true_stage[a] == 0) out.true_stage[a] = alpha;
      if (next.IsFalse(a) && out.false_stage[a] == 0) {
        out.false_stage[a] = alpha;
      }
    }
    if (next == current) {
      out.iterations = alpha;
      break;
    }
    current = std::move(next);
  }
  // Stages recorded for literals never added must read 0; literals added on
  // the final (unchanged) iteration were already present earlier, so their
  // recorded stage is their first appearance. The extra no-change round is
  // not a stage.
  out.model = std::move(current);
  return out;
}

/// S(I): least fixpoint of positive derivation where a negative literal
/// `not q` holds iff q is not in `assumed_true`.
DenseBitset PositiveClosureAssuming(const GroundProgram& gp,
                                    const DenseBitset& assumed_true) {
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
      if (assumed_true.Test(a)) {
        enabled = false;
        break;
      }
    }
    if (!enabled) {
      unmet[rid] = UINT32_MAX;
      continue;
    }
    unmet[rid] = static_cast<uint32_t>(r.pos.size());
    if (r.pos.empty()) derive(r.head);
  }
  size_t qi = 0;
  while (qi < queue.size()) {
    AtomId a = queue[qi++];
    for (RuleId rid : gp.PositiveOccurrences(a)) {
      if (unmet[rid] == UINT32_MAX || unmet[rid] == 0) continue;
      if (--unmet[rid] == 0) derive(gp.rule(rid).head);
    }
  }
  return derived;
}

WfsModel ComputeWfsAlternating(const GroundProgram& gp) {
  WfsModel out;
  size_t n = gp.atom_count();
  DenseBitset under(n);  // K: underestimate of true atoms
  DenseBitset over(n);   // S(K): overestimate (true or undefined)
  while (true) {
    ++out.iterations;
    over = PositiveClosureAssuming(gp, under);
    DenseBitset next_under = PositiveClosureAssuming(gp, over);
    if (next_under == under) break;
    under = std::move(next_under);
  }
  out.model = Interpretation(n);
  out.model.mutable_true_set().UnionWith(under);
  for (AtomId a = 0; a < n; ++a) {
    if (!over.Test(a)) out.model.SetFalse(a);
  }
  return out;
}

std::string DescribeModelDifference(const GroundProgram& gp,
                                    const Interpretation& lhs,
                                    const Interpretation& rhs) {
  std::string out;
  for (AtomId a = 0; a < gp.atom_count(); ++a) {
    TruthValue l = lhs.Value(a);
    TruthValue r = rhs.Value(a);
    if (l == r) continue;
    out += gp.store().ToString(gp.AtomTerm(a));
    out += ": ";
    out += TruthValueName(l);
    out += " vs ";
    out += TruthValueName(r);
    out += "\n";
  }
  return out;
}

bool IsTwoValuedModel(const GroundProgram& gp, const Interpretation& total) {
  for (RuleId rid = 0; rid < gp.rule_count(); ++rid) {
    const RuleView r = gp.rule(rid);
    if (total.IsTrue(r.head)) continue;
    bool body_true = true;
    for (AtomId a : r.pos) {
      if (!total.IsTrue(a)) {
        body_true = false;
        break;
      }
    }
    if (body_true) {
      for (AtomId a : r.neg) {
        if (total.IsTrue(a)) {
          body_true = false;
          break;
        }
      }
    }
    if (body_true) return false;
  }
  return true;
}

}  // namespace gsls
