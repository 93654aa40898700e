#include "analysis/atom_dependency_graph.h"

#include <algorithm>

#include "analysis/scc.h"
#include "util/csr.h"

namespace gsls {

AtomDependencyGraph::AtomDependencyGraph(
    const GroundProgram& gp, const std::vector<uint8_t>* disabled) {
  const size_t n = gp.atom_count();
  // Successors of a head atom are the body atoms (both signs) of its
  // enabled rules, with multiplicity: Tarjan is indifferent to duplicate
  // edges, and skipping deduplication keeps construction linear.
  Csr<uint32_t> adj;
  adj.Reset(n);
  for (RuleId id = 0; id < gp.rule_count(); ++id) {
    if (!RuleEnabledIn(disabled, id)) continue;
    const RuleView r = gp.rule(id);
    adj.AddCount(r.head, static_cast<uint32_t>(r.pos.size() + r.neg.size()));
  }
  adj.FinishCounting();
  for (RuleId id = 0; id < gp.rule_count(); ++id) {
    if (!RuleEnabledIn(disabled, id)) continue;
    const RuleView r = gp.rule(id);
    for (AtomId a : r.pos) adj.Fill(r.head, a);
    for (AtomId a : r.neg) adj.Fill(r.head, a);
  }
  adj.FinishFilling();

  comp_of_.assign(n, UINT32_MAX);
  local_of_.assign(n, 0);
  // Components arrive callees-first, so numbering them in emission order
  // yields the dependency order documented in the header (every
  // cross-component edge points to a smaller id).
  ForEachScc(adj, [&](std::span<const uint32_t> members) {
    const uint32_t comp = static_cast<uint32_t>(begin_.size());
    begin_.push_back(static_cast<uint32_t>(comp_atoms_.size()));
    uint32_t rank = 0;
    for (AtomId a : members) {
      comp_of_[a] = comp;
      local_of_[a] = rank++;
      comp_atoms_.push_back(a);
    }
    size_.push_back(rank);
    label_.push_back(uint64_t{comp} << 32);
    recursive_.push_back(rank > 1);
    internal_neg_.push_back(0);
  });
  for (RuleId id = 0; id < gp.rule_count(); ++id) {
    if (RuleEnabledIn(disabled, id)) ApplyFlagRule(gp.rule(id));
  }
}

void AtomDependencyGraph::ApplyFlagRule(const RuleView& r) {
  const uint32_t c = comp_of_[r.head];
  for (AtomId a : r.pos) {
    if (comp_of_[a] == c) recursive_[c] = 1;
  }
  for (AtomId a : r.neg) {
    if (comp_of_[a] == c) {
      internal_neg_[c] = 1;
      recursive_[c] = 1;
    }
  }
}

void AtomDependencyGraph::RecomputeFlags(const GroundProgram& gp,
                                         const std::vector<uint8_t>* disabled,
                                         uint32_t c) {
  internal_neg_[c] = 0;
  recursive_[c] = size_[c] > 1;
  for (AtomId a : Atoms(c)) {
    for (RuleId rid : gp.RulesFor(a)) {
      if (RuleEnabledIn(disabled, rid)) ApplyFlagRule(gp.rule(rid));
    }
  }
}

bool AtomDependencyGraph::IsLocallyStratified() const {
  return std::none_of(internal_neg_.begin(), internal_neg_.end(),
                      [](uint8_t f) { return f != 0; });
}

bool AtomDependencyGraph::IsAcyclic() const {
  return std::none_of(recursive_.begin(), recursive_.end(),
                      [](uint8_t f) { return f != 0; });
}

}  // namespace gsls
