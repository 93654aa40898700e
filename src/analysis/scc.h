#ifndef GSLS_ANALYSIS_SCC_H_
#define GSLS_ANALYSIS_SCC_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/csr.h"

namespace gsls {

namespace scc_internal {
struct NoStep {
  void operator()() const {}
};
}  // namespace scc_internal

/// Tarjan's strongly connected components of `graph`, iteratively. Node v
/// is row v, which lists the targets of v's edges (duplicates and
/// self-loops allowed); roots are tried in ascending id order and edges in
/// row order. Every condensation in analysis/ runs this one routine.
///
/// `emit(members)` runs once per component, callees first (every edge
/// leaving a component points into one emitted earlier), with the members
/// in the order they leave Tarjan's stack, the component's DFS root last;
/// the span is valid only during the call. `step()` runs once per DFS step
/// (an edge followed or a node finished), so a caller can poll a
/// checkpoint at a fixed stride.
template <typename Emit, typename Step = scc_internal::NoStep>
void ForEachScc(const Csr<uint32_t>& graph, Emit&& emit,
                Step&& step = Step{}) {
  constexpr uint32_t kUnvisited = UINT32_MAX;
  // The index of a node whose component was emitted: above every live
  // index, so the lowlink minimum ignores edges into finished components
  // and no on-stack bit is needed.
  constexpr uint32_t kDone = UINT32_MAX - 1;
  const uint32_t n = static_cast<uint32_t>(graph.rows());
  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<uint32_t> stack;
  struct Frame {
    uint32_t node;
    uint32_t edge;  ///< next position in the node's row
  };
  std::vector<Frame> frames;
  uint32_t counter = 0;
  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    index[root] = lowlink[root] = counter++;
    stack.push_back(root);
    frames.push_back(Frame{root, 0});
    while (!frames.empty()) {
      step();
      Frame& f = frames.back();
      const std::span<const uint32_t> out = graph.Row(f.node);
      if (f.edge < out.size()) {
        const uint32_t next = out[f.edge++];
        if (index[next] == kUnvisited) {
          index[next] = lowlink[next] = counter++;
          stack.push_back(next);
          frames.push_back(Frame{next, 0});
        } else {
          lowlink[f.node] = std::min(lowlink[f.node], index[next]);
        }
        continue;
      }
      const uint32_t done = f.node;
      frames.pop_back();
      if (!frames.empty()) {
        uint32_t& parent = lowlink[frames.back().node];
        parent = std::min(parent, lowlink[done]);
      }
      if (lowlink[done] != index[done]) continue;
      size_t root_pos = stack.size() - 1;
      while (stack[root_pos] != done) --root_pos;
      std::reverse(stack.begin() + root_pos, stack.end());
      const std::span<const uint32_t> members(stack.data() + root_pos,
                                              stack.size() - root_pos);
      emit(members);
      for (uint32_t v : members) index[v] = kDone;
      stack.resize(root_pos);
    }
  }
}

}  // namespace gsls

#endif  // GSLS_ANALYSIS_SCC_H_
