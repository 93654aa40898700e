#ifndef GSLS_ANALYSIS_DEPENDENCY_GRAPH_H_
#define GSLS_ANALYSIS_DEPENDENCY_GRAPH_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lang/program.h"

namespace gsls {

/// The predicate dependency graph of a program: one node per predicate,
/// an edge p -> q (with a sign) for every clause with head predicate p and
/// body literal on predicate q. Used for stratification (Apt-Blair-Walker),
/// acyclicity checks (Sec. 7 effectiveness classes), and relevance closure.
class DependencyGraph {
 public:
  struct Edge {
    FunctorId from;
    FunctorId to;
    bool positive;
  };

  explicit DependencyGraph(const Program& program);

  const std::vector<FunctorId>& predicates() const { return predicates_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Outgoing edges of `pred` (empty if unknown predicate).
  const std::vector<Edge>& EdgesFrom(FunctorId pred) const;

  /// Strongly connected components (`ForEachScc`, analysis/scc.h,
  /// computed once at construction). One vector of predicates per
  /// component, in reverse topological order (callees before callers).
  const std::vector<std::vector<FunctorId>>& StronglyConnectedComponents()
      const {
    return components_;
  }

  /// Component id of each predicate, matching the order returned by
  /// `StronglyConnectedComponents`.
  const std::unordered_map<FunctorId, size_t>& ComponentIds() const {
    return component_ids_;
  }

  /// True iff some edge inside one SCC is negative (i.e. the program has
  /// recursion through negation at the predicate level).
  bool HasNegativeCycle() const;

  /// True iff the graph has no cycle at all, self-loops included —
  /// strictly: every SCC is a single predicate without a self edge. Such
  /// programs have no recursion of either sign at the predicate level, so
  /// global SLS-resolution terminates on them whenever grounding does
  /// (function symbols may still appear, but only non-recursively).
  bool IsAcyclic() const;

  /// Predicates reachable from `roots` (following either sign), including
  /// the roots themselves when they appear in the program.
  std::unordered_set<FunctorId> ReachableFrom(
      const std::vector<FunctorId>& roots) const;

 private:
  std::vector<FunctorId> predicates_;
  std::vector<Edge> edges_;
  std::unordered_map<FunctorId, std::vector<Edge>> out_edges_;
  std::vector<Edge> no_edges_;
  std::vector<std::vector<FunctorId>> components_;
  std::unordered_map<FunctorId, size_t> component_ids_;
};

/// Stratification analysis results.
struct Stratification {
  /// True iff the program is stratified: no negative edge within an SCC of
  /// the dependency graph.
  bool stratified = false;
  /// If stratified: stratum index per predicate, 0-based; predicates only
  /// depend positively on their own stratum and (either sign) on lower ones.
  std::unordered_map<FunctorId, int> strata;
  /// Number of strata (0 if not stratified).
  int stratum_count = 0;
};

/// Computes stratification of `program` (Apt-Blair-Walker). Stratified
/// programs are locally stratified, and on them the well-founded model is
/// total and coincides with the perfect model (Przymusinski).
Stratification Stratify(const Program& program);

}  // namespace gsls

#endif  // GSLS_ANALYSIS_DEPENDENCY_GRAPH_H_
