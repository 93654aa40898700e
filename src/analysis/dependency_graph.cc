#include "analysis/dependency_graph.h"

#include <algorithm>

#include "analysis/scc.h"
#include "util/csr.h"

namespace gsls {

DependencyGraph::DependencyGraph(const Program& program) {
  // Dense ids in `predicates()` order, so the SCC routine tries roots in
  // first-appearance order and each predicate's edges in clause order.
  std::unordered_map<FunctorId, uint32_t> dense;
  auto add_pred = [&](FunctorId f) {
    if (dense.emplace(f, static_cast<uint32_t>(predicates_.size())).second) {
      predicates_.push_back(f);
    }
  };
  for (const Clause& c : program.clauses()) {
    add_pred(c.predicate());
    for (const Literal& l : c.body) {
      add_pred(l.predicate());
      Edge e{c.predicate(), l.predicate(), l.positive};
      edges_.push_back(e);
      out_edges_[c.predicate()].push_back(e);
    }
  }
  Csr<uint32_t> adj;
  adj.Reset(predicates_.size());
  for (const Edge& e : edges_) adj.CountAt(dense[e.from]);
  adj.FinishCounting();
  for (const Edge& e : edges_) adj.Fill(dense[e.from], dense[e.to]);
  adj.FinishFilling();
  ForEachScc(adj, [&](std::span<const uint32_t> members) {
    std::vector<FunctorId>& component = components_.emplace_back();
    for (uint32_t v : members) {
      component.push_back(predicates_[v]);
      component_ids_[predicates_[v]] = components_.size() - 1;
    }
  });
}

const std::vector<DependencyGraph::Edge>& DependencyGraph::EdgesFrom(
    FunctorId pred) const {
  auto it = out_edges_.find(pred);
  return it == out_edges_.end() ? no_edges_ : it->second;
}

bool DependencyGraph::HasNegativeCycle() const {
  for (const Edge& e : edges_) {
    if (!e.positive && component_ids_.at(e.from) == component_ids_.at(e.to)) {
      return true;
    }
  }
  return false;
}

bool DependencyGraph::IsAcyclic() const {
  for (const auto& comp : components_) {
    if (comp.size() > 1) return false;
  }
  // Single-node components may still have self loops.
  for (const Edge& e : edges_) {
    if (e.from == e.to) return false;
  }
  return true;
}

std::unordered_set<FunctorId> DependencyGraph::ReachableFrom(
    const std::vector<FunctorId>& roots) const {
  std::unordered_set<FunctorId> seen;
  std::vector<FunctorId> work;
  for (FunctorId r : roots) {
    if (seen.insert(r).second) work.push_back(r);
  }
  while (!work.empty()) {
    FunctorId p = work.back();
    work.pop_back();
    for (const Edge& e : EdgesFrom(p)) {
      if (seen.insert(e.to).second) work.push_back(e.to);
    }
  }
  return seen;
}

Stratification Stratify(const Program& program) {
  DependencyGraph graph(program);
  Stratification out;
  if (graph.HasNegativeCycle()) return out;
  const auto& components = graph.StronglyConnectedComponents();
  const auto& ids = graph.ComponentIds();
  out.stratified = true;
  // Components are in reverse topological order (callees first), so a
  // single left-to-right pass computes strata:
  //   stratum(C) = max over edges C -> D of (stratum(D) + (edge negative)).
  std::vector<int> comp_stratum(components.size(), 0);
  for (size_t i = 0; i < components.size(); ++i) {
    int s = 0;
    for (FunctorId p : components[i]) {
      for (const auto& e : graph.EdgesFrom(p)) {
        size_t target = ids.at(e.to);
        if (target == i) continue;
        int need = comp_stratum[target] + (e.positive ? 0 : 1);
        s = std::max(s, need);
      }
    }
    comp_stratum[i] = s;
  }
  int max_stratum = 0;
  for (size_t i = 0; i < components.size(); ++i) {
    for (FunctorId p : components[i]) {
      out.strata[p] = comp_stratum[i];
    }
    max_stratum = std::max(max_stratum, comp_stratum[i]);
  }
  out.stratum_count = components.empty() ? 0 : max_stratum + 1;
  return out;
}

}  // namespace gsls
