#include "core/slp_tree.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "util/strings.h"

namespace gsls {

namespace {

void CollectActiveLeaves(const SlpNode* node,
                         std::vector<const SlpNode*>* out) {
  if (node->kind == SlpNodeKind::kActiveLeaf) out->push_back(node);
  for (const auto& c : node->children) CollectActiveLeaves(c.get(), out);
}

void Render(const SlpNode* node, const TermStore& store, int indent,
            std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(GoalToString(store, node->goal));
  switch (node->kind) {
    case SlpNodeKind::kActiveLeaf:
      out->append("   [active leaf]");
      break;
    case SlpNodeKind::kDeadLeaf:
      out->append("   [dead leaf]");
      break;
    case SlpNodeKind::kTruncated:
      out->append("   [...truncated]");
      break;
    case SlpNodeKind::kInfiniteLoop:
      out->append("   [infinite branch: goal repeats]");
      break;
    case SlpNodeKind::kInternal:
      break;
  }
  out->push_back('\n');
  for (const auto& c : node->children) Render(c.get(), store, indent + 1, out);
}

}  // namespace

SlpTree SlpTree::Build(const Program& program, const Goal& root,
                       SlpTreeOptions opts) {
  TermStore& store = program.store();
  SlpTree tree;
  tree.root_ = std::make_unique<SlpNode>();
  tree.root_->goal = root;
  tree.root_->depth = 0;
  tree.node_count_ = 1;

  // Ancestor goal keys per pending node, for repeated-goal (infinite
  // branch) detection.
  std::unordered_map<const SlpNode*, std::vector<uint64_t>> paths;
  paths[tree.root_.get()] = {};

  std::deque<SlpNode*> frontier{tree.root_.get()};
  while (!frontier.empty()) {
    SlpNode* node = frontier.front();
    frontier.pop_front();
    std::vector<uint64_t> path = std::move(paths[node]);
    paths.erase(node);
    size_t sel = SelectLiteral(node->goal, SelectionMode::kPositivistic);
    if (sel == SIZE_MAX) {
      node->kind = SlpNodeKind::kActiveLeaf;
      continue;
    }
    uint64_t key = 0;
    if (opts.prune_repeated_goals) {
      key = GroundGoalKey(node->goal);
      if (key != 0 &&
          std::find(path.begin(), path.end(), key) != path.end()) {
        node->kind = SlpNodeKind::kInfiniteLoop;
        continue;
      }
    }
    if (node->depth >= opts.max_depth || tree.node_count_ >= opts.max_nodes) {
      node->kind = SlpNodeKind::kTruncated;
      tree.truncated_ = true;
      continue;
    }
    if (key != 0) path.push_back(key);
    bool any_child = false;
    for (size_t ci : program.ClausesFor(node->goal[sel].atom->functor())) {
      if (tree.node_count_ >= opts.max_nodes) {
        tree.truncated_ = true;
        break;
      }
      std::optional<Resolvent> resolvent = Resolve(
          store, program.clauses()[ci], node->goal, sel, node->computed_mgu);
      if (!resolvent.has_value()) continue;
      auto child = std::make_unique<SlpNode>();
      child->depth = node->depth + 1;
      child->clause_index = ci;
      child->goal = NormalizeGoal(resolvent->goal);
      child->computed_mgu = std::move(resolvent->theta);
      paths[child.get()] = path;
      frontier.push_back(child.get());
      node->children.push_back(std::move(child));
      ++tree.node_count_;
      any_child = true;
    }
    if (!any_child && node->children.empty() &&
        node->kind == SlpNodeKind::kInternal) {
      node->kind = SlpNodeKind::kDeadLeaf;
    }
  }
  return tree;
}

std::vector<const SlpNode*> SlpTree::ActiveLeaves() const {
  std::vector<const SlpNode*> out;
  CollectActiveLeaves(root_.get(), &out);
  return out;
}

std::string SlpTree::ToString(const TermStore& store) const {
  std::string out;
  Render(root_.get(), store, 0, &out);
  return out;
}

}  // namespace gsls
