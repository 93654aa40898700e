#include "analysis/atom_dependency_graph.h"

#include <algorithm>

namespace gsls {

namespace {

/// Flat CSR adjacency: successors of a head atom are the body atoms (both
/// signs) of its rules, with multiplicity — Tarjan is indifferent to
/// duplicate edges and skipping deduplication keeps construction linear.
/// Rules flagged in the optional `disabled` mask contribute no edges.
struct Adjacency {
  std::vector<uint32_t> offsets;
  std::vector<AtomId> targets;

  Adjacency(const GroundProgram& gp, const std::vector<uint8_t>* disabled) {
    size_t n = gp.atom_count();
    offsets.assign(n + 1, 0);
    for (RuleId id = 0; id < gp.rule_count(); ++id) {
      if (!RuleEnabledIn(disabled, id)) continue;
      const GroundRule& r = gp.rules()[id];
      offsets[r.head + 1] +=
          static_cast<uint32_t>(r.pos.size() + r.neg.size());
    }
    for (size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
    targets.resize(offsets[n]);
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (RuleId id = 0; id < gp.rule_count(); ++id) {
      if (!RuleEnabledIn(disabled, id)) continue;
      const GroundRule& r = gp.rules()[id];
      for (AtomId a : r.pos) targets[cursor[r.head]++] = a;
      for (AtomId a : r.neg) targets[cursor[r.head]++] = a;
    }
  }
};

}  // namespace

AtomDependencyGraph::AtomDependencyGraph(
    const GroundProgram& gp, const std::vector<uint8_t>* disabled) {
  size_t n = gp.atom_count();
  Adjacency adj(gp, disabled);

  comp_of_.assign(n, UINT32_MAX);
  local_of_.assign(n, 0);

  // Iterative Tarjan. Components are completed callees-first, so numbering
  // them in emission order yields the dependency order documented in the
  // header (every cross-component edge points to a smaller id).
  std::vector<uint32_t> index(n, UINT32_MAX);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<AtomId> stack;
  struct Frame {
    AtomId atom;
    uint32_t edge;
  };
  std::vector<Frame> frames;
  uint32_t counter = 0;

  for (AtomId root = 0; root < n; ++root) {
    if (index[root] != UINT32_MAX) continue;
    index[root] = lowlink[root] = counter++;
    stack.push_back(root);
    on_stack[root] = true;
    frames.push_back(Frame{root, adj.offsets[root]});
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge < adj.offsets[f.atom + 1]) {
        AtomId next = adj.targets[f.edge++];
        if (index[next] == UINT32_MAX) {
          index[next] = lowlink[next] = counter++;
          stack.push_back(next);
          on_stack[next] = true;
          frames.push_back(Frame{next, adj.offsets[next]});
        } else if (on_stack[next]) {
          lowlink[f.atom] = std::min(lowlink[f.atom], index[next]);
        }
        continue;
      }
      AtomId done = f.atom;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().atom] =
            std::min(lowlink[frames.back().atom], lowlink[done]);
      }
      if (lowlink[done] == index[done]) {
        uint32_t comp = static_cast<uint32_t>(begin_.size());
        begin_.push_back(static_cast<uint32_t>(comp_atoms_.size()));
        uint32_t rank = 0;
        while (true) {
          AtomId w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp_of_[w] = comp;
          local_of_[w] = rank++;
          comp_atoms_.push_back(w);
          if (w == done) break;
        }
        size_.push_back(rank);
        label_.push_back(uint64_t{comp} << 32);
      }
    }
  }

  internal_neg_.assign(component_count(), 0);
  recursive_.assign(component_count(), 0);
  for (uint32_t c = 0; c < component_count(); ++c) {
    if (size_[c] > 1) recursive_[c] = 1;
  }
  for (RuleId id = 0; id < gp.rule_count(); ++id) {
    if (!RuleEnabledIn(disabled, id)) continue;
    const GroundRule& r = gp.rules()[id];
    uint32_t head_comp = comp_of_[r.head];
    for (AtomId a : r.pos) {
      if (comp_of_[a] == head_comp) recursive_[head_comp] = 1;
    }
    for (AtomId a : r.neg) {
      if (comp_of_[a] == head_comp) {
        internal_neg_[head_comp] = 1;
        recursive_[head_comp] = 1;
      }
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
