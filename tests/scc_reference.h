#ifndef GSLS_TESTS_SCC_REFERENCE_H_
#define GSLS_TESTS_SCC_REFERENCE_H_

// Strongly connected components and the condensation flags by their
// definitions — mutual reachability, computed by a search from every node —
// sharing no code with analysis/scc.h. Quadratic; for test-sized graphs.

#include <cstdint>
#include <vector>

#include "ground/ground_program.h"

namespace gsls::testing {

/// `ReachabilityClosure(succ)[u][v]` is nonzero iff a path of length >= 0
/// leads from u to v.
inline std::vector<std::vector<uint8_t>> ReachabilityClosure(
    const std::vector<std::vector<uint32_t>>& succ) {
  const size_t n = succ.size();
  std::vector<std::vector<uint8_t>> reach(n, std::vector<uint8_t>(n, 0));
  for (uint32_t s = 0; s < n; ++s) {
    std::vector<uint32_t> work{s};
    reach[s][s] = 1;
    while (!work.empty()) {
      const uint32_t u = work.back();
      work.pop_back();
      for (uint32_t v : succ[u]) {
        if (reach[s][v] == 0) {
          reach[s][v] = 1;
          work.push_back(v);
        }
      }
    }
  }
  return reach;
}

/// The SCC partition by definition: `[v]` is the smallest node mutually
/// reachable with v, so two nodes share a component iff their entries
/// agree.
inline std::vector<uint32_t> ReferenceComponents(
    const std::vector<std::vector<uint32_t>>& succ) {
  const std::vector<std::vector<uint8_t>> reach = ReachabilityClosure(succ);
  std::vector<uint32_t> rep(succ.size());
  for (uint32_t v = 0; v < succ.size(); ++v) {
    rep[v] = v;
    for (uint32_t u = 0; u < v; ++u) {
      if (reach[u][v] != 0 && reach[v][u] != 0) {
        rep[v] = u;
        break;
      }
    }
  }
  return rep;
}

/// The atom dependency graph of the enabled rules of `gp`: an edge from
/// each rule's head to each of its body atoms, of either sign.
inline std::vector<std::vector<uint32_t>> AtomSuccessors(
    const GroundProgram& gp, const std::vector<uint8_t>* disabled = nullptr) {
  std::vector<std::vector<uint32_t>> succ(gp.atom_count());
  for (RuleId id = 0; id < gp.rule_count(); ++id) {
    if (!RuleEnabledIn(disabled, id)) continue;
    const GroundRule& r = gp.rules()[id];
    for (AtomId b : r.pos) succ[r.head].push_back(b);
    for (AtomId b : r.neg) succ[r.head].push_back(b);
  }
  return succ;
}

/// Per atom: its reference component and that component's flags, read
/// off the enabled rules. A component is recursive iff it has more than
/// one atom or some rule has its head and a body atom in it; it has
/// internal negation iff some rule has its head and a negative body atom
/// in it.
struct ReferenceCondensation {
  std::vector<uint32_t> component;
  std::vector<uint8_t> recursive;
  std::vector<uint8_t> internal_neg;
};

inline ReferenceCondensation ReferenceCondense(
    const GroundProgram& gp, const std::vector<uint8_t>* disabled = nullptr) {
  ReferenceCondensation out;
  out.component = ReferenceComponents(AtomSuccessors(gp, disabled));
  const size_t n = gp.atom_count();
  std::vector<uint8_t> rec(n, 0);  // by representative
  std::vector<uint8_t> neg(n, 0);
  for (AtomId a = 0; a < n; ++a) {
    if (out.component[a] != a) rec[out.component[a]] = 1;
  }
  for (RuleId id = 0; id < gp.rule_count(); ++id) {
    if (!RuleEnabledIn(disabled, id)) continue;
    const GroundRule& r = gp.rules()[id];
    const uint32_t c = out.component[r.head];
    for (AtomId b : r.pos) {
      if (out.component[b] == c) rec[c] = 1;
    }
    for (AtomId b : r.neg) {
      if (out.component[b] == c) rec[c] = neg[c] = 1;
    }
  }
  out.recursive.resize(n);
  out.internal_neg.resize(n);
  for (AtomId a = 0; a < n; ++a) {
    out.recursive[a] = rec[out.component[a]];
    out.internal_neg[a] = neg[out.component[a]];
  }
  return out;
}

}  // namespace gsls::testing

#endif  // GSLS_TESTS_SCC_REFERENCE_H_
