#include "core/global_tree.h"
#include "core/slp_tree.h"

#include <gtest/gtest.h>

#include "test_support.h"
#include "util/strings.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;

/// Example 3.1 (Van Gelder): the ordinal program behind Figures 1-4.
const char* kVanGelder =
    "e(s(0), s(s(0))).\n"
    "e(s(X), s(s(Y))) :- e(X, s(Y)).\n"
    "e(s(0), 0).\n"
    "e(s(X), 0) :- e(X, 0).\n"
    "w(X) :- not u(X).\n"
    "u(X) :- e(Y, X), not w(Y).\n";

std::string Int(int i) {
  std::string t = "0";
  for (int k = 0; k < i; ++k) t = "s(" + t + ")";
  return t;
}

TEST(SlpTreeTest, FactTreeShape) {
  Fixture f("p(a).");
  SlpTree tree = SlpTree::Build(f.program, MustParseQuery(f.store, "p(X)"));
  EXPECT_EQ(tree.node_count(), 2u);
  auto leaves = tree.ActiveLeaves();
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_TRUE(leaves[0]->goal.empty());
  EXPECT_EQ(leaves[0]->depth, 1u);
}

TEST(SlpTreeTest, DeadLeafWhenNoClauseMatches) {
  Fixture f("p(a).");
  SlpTree tree = SlpTree::Build(f.program, MustParseQuery(f.store, "p(b)"));
  EXPECT_TRUE(tree.ActiveLeaves().empty());
  EXPECT_EQ(tree.root().kind, SlpNodeKind::kDeadLeaf);
}

TEST(SlpTreeTest, ActiveLeavesCollectNegativeLiterals) {
  Fixture f("p :- q, not r. q :- not s.");
  SlpTree tree = SlpTree::Build(f.program, MustParseQuery(f.store, "p"));
  auto leaves = tree.ActiveLeaves();
  ASSERT_EQ(leaves.size(), 1u);
  // p -> q, not r -> not s, not r.
  EXPECT_EQ(leaves[0]->goal.size(), 2u);
  for (const Literal& l : leaves[0]->goal) EXPECT_FALSE(l.positive);
}

TEST(SlpTreeTest, ComputedMguAccumulates) {
  Fixture f("p(X, b) :- q(X). q(a).");
  SlpTree tree =
      SlpTree::Build(f.program, MustParseQuery(f.store, "p(U, V)"));
  auto leaves = tree.ActiveLeaves();
  ASSERT_EQ(leaves.size(), 1u);
  Goal query = MustParseQuery(f.store, "p(U, V)");
  // Rebuild the root goal atom and apply the leaf's computed mgu. The root
  // of this tree used the same variables (first parse); check via text.
  const SlpNode& root = tree.root();
  const Term* applied =
      leaves[0]->computed_mgu.Apply(f.store, root.goal[0].atom);
  EXPECT_EQ(f.store.ToString(applied), "p(a,b)");
}

TEST(SlpTreeTest, RepeatedGroundGoalClosesInfiniteBranch) {
  Fixture f("p :- p.");
  SlpTree tree = SlpTree::Build(f.program, MustParseQuery(f.store, "p"));
  EXPECT_FALSE(tree.truncated());  // exact: the branch provably repeats
  EXPECT_TRUE(tree.ActiveLeaves().empty());
  ASSERT_EQ(tree.root().children.size(), 1u);
  EXPECT_EQ(tree.root().children[0]->kind, SlpNodeKind::kInfiniteLoop);
}

TEST(SlpTreeTest, TruncationIsReported) {
  // A branch with ever-deeper ground goals never repeats a goal; the
  // depth budget trips and the tree is marked truncated.
  Fixture f("p(X) :- p(f(X)).");
  SlpTreeOptions opts;
  opts.max_depth = 10;
  SlpTree tree =
      SlpTree::Build(f.program, MustParseQuery(f.store, "p(a)"), opts);
  EXPECT_TRUE(tree.truncated());
  EXPECT_TRUE(tree.ActiveLeaves().empty());
}

TEST(SlpTreeTest, BranchingFollowsClauseOrder) {
  Fixture f("p :- q. p :- r. q. r.");
  SlpTree tree = SlpTree::Build(f.program, MustParseQuery(f.store, "p"));
  ASSERT_EQ(tree.root().children.size(), 2u);
  EXPECT_EQ(tree.root().children[0]->clause_index, 0u);
  EXPECT_EQ(tree.root().children[1]->clause_index, 1u);
}

// ---------------------------------------------------------------------------
// Figures 1-3: SLP-tree shapes for the Van Gelder program.
// ---------------------------------------------------------------------------

TEST(VanGelderFigures, Figure1TreeForWi) {
  // T_{w(i)}: a single branch w(i) -> not u(i) (Figure 1).
  Fixture f(kVanGelder);
  for (int i = 0; i <= 10; ++i) {
    Goal goal = MustParseQuery(f.store, StrCat("w(", Int(i), ")"));
    SlpTree tree = SlpTree::Build(f.program, goal);
    EXPECT_EQ(tree.node_count(), 2u);
    auto leaves = tree.ActiveLeaves();
    ASSERT_EQ(leaves.size(), 1u) << "w(" << i << ")";
    ASSERT_EQ(leaves[0]->goal.size(), 1u);
    EXPECT_EQ(leaves[0]->goal[0].ToString(f.store),
              StrCat("not u(", Int(i), ")"));
  }
}

TEST(VanGelderFigures, Figure2TreeForUiHasSingleLeafAtWiMinus1) {
  // T_{u(i)} for finite i >= 2: one active leaf {not w(i-1)} at depth i-1
  // along the successor-shift spine (Figure 2).
  Fixture f(kVanGelder);
  for (int i = 2; i <= 10; ++i) {
    Goal goal = MustParseQuery(f.store, StrCat("u(", Int(i), ")"));
    SlpTree tree = SlpTree::Build(f.program, goal);
    auto leaves = tree.ActiveLeaves();
    ASSERT_EQ(leaves.size(), 1u) << "u(" << i << ")";
    ASSERT_EQ(leaves[0]->goal.size(), 1u);
    EXPECT_EQ(leaves[0]->goal[0].ToString(f.store),
              StrCat("not w(", Int(i - 1), ")"));
    EXPECT_EQ(leaves[0]->depth, static_cast<size_t>(i));
  }
}

TEST(VanGelderFigures, U1HasNoActiveLeaves) {
  // 1 = s(0) has no e-predecessor: T_{u(1)} fails immediately.
  Fixture f(kVanGelder);
  SlpTree tree =
      SlpTree::Build(f.program, MustParseQuery(f.store, "u(s(0))"));
  EXPECT_TRUE(tree.ActiveLeaves().empty());
  EXPECT_FALSE(tree.truncated());
}

TEST(VanGelderFigures, Figure3TreeForU0HasLeafPerInteger) {
  // T_{u(0)}: infinitely many active leaves {not w(i)}, i = 1, 2, ...
  // (Figure 3). Truncated at depth D, exactly the first D-1 leaves appear.
  Fixture f(kVanGelder);
  for (size_t depth : {4, 8, 12, 16, 32}) {
    SlpTreeOptions opts;
    opts.max_depth = depth;
    SlpTree tree =
        SlpTree::Build(f.program, MustParseQuery(f.store, "u(0)"), opts);
    EXPECT_TRUE(tree.truncated());
    auto leaves = tree.ActiveLeaves();
    ASSERT_EQ(leaves.size(), depth - 1);
    for (size_t k = 0; k < leaves.size(); ++k) {
      ASSERT_EQ(leaves[k]->goal.size(), 1u);
      EXPECT_EQ(leaves[k]->goal[0].ToString(f.store),
                StrCat("not w(", Int(static_cast<int>(k) + 1), ")"));
    }
  }
}

// ---------------------------------------------------------------------------
// Figure 4: the global tree for <- w(n), statuses and levels.
// ---------------------------------------------------------------------------

TEST(VanGelderFigures, Figure4StatusesWiSuccessfulUiFailed) {
  Fixture f(kVanGelder);
  GlobalTreeOptions opts;
  opts.max_negation_depth = 24;
  for (int i = 1; i <= 9; ++i) {
    GlobalTree w_tree = GlobalTree::Build(
        f.program, MustParseQuery(f.store, StrCat("w(", Int(i), ")")), opts);
    EXPECT_EQ(w_tree.status(), GoalStatus::kSuccessful) << "w(" << i << ")";
    GlobalTree u_tree = GlobalTree::Build(
        f.program, MustParseQuery(f.store, StrCat("u(", Int(i), ")")), opts);
    EXPECT_EQ(u_tree.status(), GoalStatus::kFailed) << "u(" << i << ")";
  }
}

TEST(VanGelderFigures, Figure4LevelOfWnIsTwoN) {
  // "For n >= 1, the goal <- w(s^n(0)) has level 2n."
  Fixture f(kVanGelder);
  GlobalTreeOptions opts;
  opts.max_negation_depth = 30;
  for (int n = 1; n <= 9; ++n) {
    GlobalTree tree = GlobalTree::Build(
        f.program, MustParseQuery(f.store, StrCat("w(", Int(n), ")")), opts);
    ASSERT_EQ(tree.status(), GoalStatus::kSuccessful);
    EXPECT_TRUE(tree.level_exact());
    EXPECT_EQ(tree.level(), Ordinal::Finite(2 * n)) << "w(" << n << ")";
  }
}

TEST(VanGelderFigures, Figure4LevelOfUnIsTwoNMinusOne) {
  Fixture f(kVanGelder);
  GlobalTreeOptions opts;
  opts.max_negation_depth = 30;
  for (int n = 1; n <= 9; ++n) {
    GlobalTree tree = GlobalTree::Build(
        f.program, MustParseQuery(f.store, StrCat("u(", Int(n), ")")), opts);
    ASSERT_EQ(tree.status(), GoalStatus::kFailed);
    // u(1) = u(s(0)) has no e-predecessor: it fails at level 1.
    EXPECT_EQ(tree.level(), Ordinal::Finite(n == 1 ? 1 : 2 * n - 1))
        << "u(" << n << ")";
  }
}

TEST(VanGelderFigures, W0IsNotDeterminedWithinAnyFiniteBudget) {
  // <- w(0) has level w+2: no finite exploration determines it; the
  // analytic limit is checked in the ordinal tests / Figure 4 bench.
  Fixture f(kVanGelder);
  GlobalTreeOptions opts;
  opts.slp.max_depth = 20;
  opts.max_negation_depth = 30;
  GlobalTree tree =
      GlobalTree::Build(f.program, MustParseQuery(f.store, "w(0)"), opts);
  EXPECT_EQ(tree.status(), GoalStatus::kUnknown);
}

TEST(GlobalTreeTest, StatusesMatchEngineOnGamePrograms) {
  Rng rng(0x6106A1u);
  for (int trial = 0; trial < 15; ++trial) {
    std::string src = workload::RandomGame(rng, 4, 35);
    Fixture f(src);
    GlobalSlsEngine engine(f.program);
    GroundProgram gp = testing::MustGround(f.program);
    for (AtomId a = 0; a < gp.atom_count(); ++a) {
      const Term* atom = gp.AtomTerm(a);
      GlobalTreeOptions opts;
      opts.max_negation_depth = 20;
      GlobalTree tree =
          GlobalTree::Build(f.program, Goal{Literal::Pos(atom)}, opts);
      GoalStatus expected = engine.StatusOf(atom);
      if (tree.status() == GoalStatus::kUnknown) continue;  // budget
      EXPECT_EQ(tree.status(), expected)
          << f.store.ToString(atom) << " in\n" << src;
    }
  }
}

TEST(GlobalTreeTest, NegationNodeForEmptyLeafHasNoChildren) {
  Fixture f("p.");
  GlobalTree tree = GlobalTree::Build(f.program, MustParseQuery(f.store, "p"));
  ASSERT_EQ(tree.root().children.size(), 1u);
  const GlobalNode& neg = *tree.root().children[0];
  EXPECT_EQ(neg.kind, GlobalNodeKind::kNegation);
  EXPECT_TRUE(neg.children.empty());
  EXPECT_EQ(neg.status, GoalStatus::kSuccessful);
  EXPECT_EQ(neg.level, Ordinal());  // level 0
  EXPECT_EQ(tree.level(), Ordinal::Finite(1));
}

TEST(GlobalTreeTest, NongroundNodeFlounders) {
  Fixture f("p(X) :- not q(f(X)). q(a).");
  GlobalTree tree =
      GlobalTree::Build(f.program, MustParseQuery(f.store, "p(X)"));
  EXPECT_EQ(tree.status(), GoalStatus::kFloundered);
}

TEST(GlobalTreeTest, RenderingMentionsStatusesAndLevels) {
  Fixture f("p :- not q.");
  GlobalTree tree = GlobalTree::Build(f.program, MustParseQuery(f.store, "p"));
  std::string s = tree.ToString(f.store);
  EXPECT_NE(s.find("successful"), std::string::npos);
  EXPECT_NE(s.find("failed"), std::string::npos);
  EXPECT_NE(s.find("level"), std::string::npos);
}


// --- Golden renders of the materialized trees.

TEST(TreeGoldenTest, SlpTreesOfVanGelder) {
  Fixture f(kVanGelder);
  SlpTreeOptions opts;
  opts.max_depth = 6;
  auto render = [&](const std::string& goal) {
    return SlpTree::Build(f.program, MustParseQuery(f.store, goal), opts)
        .ToString(f.store);
  };
  EXPECT_EQ(render("w(" + Int(2) + ")"),
            R"(w(s(s(0)))
  not u(s(s(0)))   [active leaf]
)");
  EXPECT_EQ(render("u(" + Int(0) + ")"),
            R"(u(0)
  e(Y,0), not w(Y)
    not w(s(0))   [active leaf]
    e(X,0), not w(s(X))
      not w(s(s(0)))   [active leaf]
      e(X,0), not w(s(s(X)))
        not w(s(s(s(0))))   [active leaf]
        e(X,0), not w(s(s(s(X))))
          not w(s(s(s(s(0)))))   [active leaf]
          e(X,0), not w(s(s(s(s(X)))))
            not w(s(s(s(s(s(0))))))   [active leaf]
            e(X,0), not w(s(s(s(s(s(X))))))   [...truncated]
)");
  EXPECT_EQ(render("u(" + Int(1) + ")"),
            R"(u(s(0))
  e(Y,s(0)), not w(Y)   [dead leaf]
)");
  EXPECT_EQ(render("u(" + Int(2) + ")"),
            R"(u(s(s(0)))
  e(Y,s(s(0))), not w(Y)
    not w(s(0))   [active leaf]
    e(X,s(0)), not w(s(X))   [dead leaf]
)");
  EXPECT_EQ(render("u(" + Int(3) + ")"),
            R"(u(s(s(s(0))))
  e(Y,s(s(s(0)))), not w(Y)
    e(X,s(s(0))), not w(s(X))
      not w(s(s(0)))   [active leaf]
      e(X,s(0)), not w(s(s(X)))   [dead leaf]
)");
}

TEST(TreeGoldenTest, GlobalTreesOfVanGelderAndAGameCycle) {
  Fixture f(kVanGelder);
  auto render = [&](int n) {
    GlobalTreeOptions opts;
    opts.max_negation_depth = 2 * static_cast<size_t>(n) + 4;
    return GlobalTree::Build(f.program,
                             MustParseQuery(f.store, "w(" + Int(n) + ")"),
                             opts)
        .ToString(f.store);
  };
  EXPECT_EQ(render(1),
            R"(<- w(s(0))   [successful, level 2]
  (neg) not u(s(0))   [successful, level 1]
    <- u(s(0))   [failed, level 1]
)");
  EXPECT_EQ(render(2),
            R"(<- w(s(s(0)))   [successful, level 4]
  (neg) not u(s(s(0)))   [successful, level 3]
    <- u(s(s(0)))   [failed, level 3]
      (neg) not w(s(0))   [failed, level 2]
        <- w(s(0))   [successful, level 2]
          (neg) not u(s(0))   [successful, level 1]
            <- u(s(0))   [failed, level 1]
)");
  Fixture game(workload::GameCycleWithTail(2, 2));
  EXPECT_EQ(
      GlobalTree::Build(game.program, MustParseQuery(game.store, "win(X)"))
          .ToString(game.store),
      R"(<- win(X)   [successful, level 2]
  (neg) not win(c1)   [indeterminate]
    <- win(c1)   [indeterminate]
      (neg) not win(c0)   [indeterminate]
        <- win(c0)   [indeterminate]
          (neg) not win(c1)   [indeterminate]
            <- win(c1)   [indeterminate]
          (neg) not win(t1)   [failed, level 2]
            <- win(t1)   [successful, level 2]
              (neg) not win(t2)   [successful, level 1]
                <- win(t2)   [failed, level 1]
  (neg) not win(c0)   [indeterminate]
    <- win(c0)   [indeterminate]
      (neg) not win(c1)   [indeterminate]
        <- win(c1)   [indeterminate]
          (neg) not win(c0)   [indeterminate]
            <- win(c0)   [indeterminate]
      (neg) not win(t1)   [failed, level 2]
        <- win(t1)   [successful, level 2]
          (neg) not win(t2)   [successful, level 1]
            <- win(t2)   [failed, level 1]
  (neg) not win(t1)   [failed, level 2]
    <- win(t1)   [successful, level 2]
      (neg) not win(t2)   [successful, level 1]
        <- win(t2)   [failed, level 1]
  (neg) not win(t2)   [successful, level 1]
    <- win(t2)   [failed, level 1]
)");
}

}  // namespace
}  // namespace gsls
