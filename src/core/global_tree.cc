#include "core/global_tree.h"

#include <unordered_set>

#include "util/strings.h"

namespace gsls {

namespace {

class Builder {
 public:
  Builder(const Program& program, const GlobalTreeOptions& opts)
      : program_(program), opts_(opts) {}

  std::unique_ptr<GlobalNode> BuildTreeNode(const Goal& goal,
                                            size_t neg_depth) {
    auto node = std::make_unique<GlobalNode>();
    node->kind = GlobalNodeKind::kTree;
    node->goal = goal;
    ++node_count_;
    if (node_count_ >= opts_.max_nodes ||
        neg_depth > opts_.max_negation_depth) {
      node->status = GoalStatus::kUnknown;
      return node;
    }
    node->slp = std::make_unique<SlpTree>(
        SlpTree::Build(program_, goal, opts_.slp));
    ChildStatusFold fold;
    fold.any_unknown = node->slp->truncated();
    for (const SlpNode* leaf : node->slp->ActiveLeaves()) {
      auto child = BuildNegationNode(leaf->goal, neg_depth);
      fold.Add(child->status, child->level, child->level_exact);
      node->children.push_back(std::move(child));
    }
    // Tree-node status calculus (Def. 3.3 rule 3).
    Conclude(fold, GoalStatus::kSuccessful,
             fold.min_success + Ordinal::Finite(1), GoalStatus::kFailed,
             fold.fail_lub + Ordinal::Finite(1), node.get());
    return node;
  }

 private:
  /// Rules 2 and 3 share their shape: a successful child decides the node
  /// (`if_success` at `success_level`, exact unless a sibling is unknown);
  /// then unknown, floundered and indeterminate children win in that
  /// order; otherwise every child failed (`if_all_failed` at `fail_level`).
  static void Conclude(const ChildStatusFold& fold, GoalStatus if_success,
                       const Ordinal& success_level, GoalStatus if_all_failed,
                       const Ordinal& fail_level, GlobalNode* node) {
    if (fold.any_success) {
      node->status = if_success;
      node->level = success_level;
      node->level_exact = fold.min_success_exact && !fold.any_unknown;
    } else if (fold.any_unknown) {
      node->status = GoalStatus::kUnknown;
    } else if (fold.any_floundered) {
      node->status = GoalStatus::kFloundered;
    } else if (fold.any_indeterminate) {
      node->status = GoalStatus::kIndeterminate;
    } else {
      node->status = if_all_failed;
      node->level = fail_level;
      node->level_exact = fold.fail_exact;
    }
  }

  std::unique_ptr<GlobalNode> BuildNegationNode(const Goal& leaf,
                                                size_t neg_depth) {
    auto node = std::make_unique<GlobalNode>();
    node->kind = GlobalNodeKind::kNegation;
    node->goal = leaf;
    ++node_count_;
    ChildStatusFold fold;
    for (const Literal& l : leaf) {
      if (!l.atom->ground()) {
        auto ng = std::make_unique<GlobalNode>();
        ng->kind = GlobalNodeKind::kNonground;
        ng->goal = Goal{l};
        ng->status = GoalStatus::kFloundered;
        ++node_count_;
        fold.any_floundered = true;
        node->children.push_back(std::move(ng));
        continue;
      }
      std::unique_ptr<GlobalNode> child;
      if (path_.count(l.atom) > 0) {
        // Negative loop: this subgoal is already being expanded above us;
        // the derivation recurses through negation indefinitely.
        child = std::make_unique<GlobalNode>();
        child->kind = GlobalNodeKind::kTree;
        child->goal = Goal{Literal::Pos(l.atom)};
        child->status = GoalStatus::kIndeterminate;
        ++node_count_;
      } else {
        path_.insert(l.atom);
        child = BuildTreeNode(Goal{Literal::Pos(l.atom)}, neg_depth + 1);
        path_.erase(l.atom);
      }
      fold.Add(child->status, child->level, child->level_exact);
      node->children.push_back(std::move(child));
    }
    // Negation-node status calculus (Def. 3.3 rule 2).
    Conclude(fold, GoalStatus::kFailed, fold.min_success,
             GoalStatus::kSuccessful, fold.fail_lub, node.get());
    return node;
  }

 public:
  size_t node_count() const { return node_count_; }

 private:
  const Program& program_;
  const GlobalTreeOptions& opts_;
  size_t node_count_ = 0;
  std::unordered_set<const Term*> path_;
};

void Render(const GlobalNode* node, const TermStore& store, int indent,
            std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  switch (node->kind) {
    case GlobalNodeKind::kTree:
      out->append(StrCat("<- ", GoalToString(store, node->goal)));
      break;
    case GlobalNodeKind::kNegation:
      out->append(StrCat("(neg) ", GoalToString(store, node->goal)));
      break;
    case GlobalNodeKind::kNonground:
      out->append(StrCat("(nonground) ", GoalToString(store, node->goal)));
      break;
  }
  out->append(StrCat("   [", GoalStatusName(node->status)));
  if (node->status == GoalStatus::kSuccessful ||
      node->status == GoalStatus::kFailed) {
    out->append(StrCat(", level ", node->level.ToString(),
                       node->level_exact ? "" : " (inexact)"));
  }
  out->append("]\n");
  for (const auto& c : node->children) Render(c.get(), store, indent + 1, out);
}

}  // namespace

GlobalTree GlobalTree::Build(const Program& program, const Goal& root,
                             GlobalTreeOptions opts) {
  Builder builder(program, opts);
  GlobalTree tree;
  tree.root_ = builder.BuildTreeNode(root, 0);
  tree.node_count_ = builder.node_count();
  return tree;
}

std::string GlobalTree::ToString(const TermStore& store) const {
  std::string out;
  Render(root_.get(), store, 0, &out);
  return out;
}

}  // namespace gsls
