#include "ground/grounder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "legacy_grounder.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/strings.h"
#include "wfs/wfs.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;

TEST(HerbrandTest, ConstantsOnly) {
  Fixture f("p(a, b). q(c).");
  Result<std::vector<const Term*>> u =
      EnumerateUniverse(f.program, UniverseOptions{});
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u->size(), 3u);
}

TEST(HerbrandTest, SyntheticConstantWhenNone) {
  Fixture f("p :- q.");
  Result<std::vector<const Term*>> u =
      EnumerateUniverse(f.program, UniverseOptions{});
  ASSERT_TRUE(u.ok());
  ASSERT_EQ(u->size(), 1u);
  EXPECT_EQ(f.store.ToString(u->front()), "$k");
}

TEST(HerbrandTest, DepthBoundedWithFunctions) {
  Fixture f("p(s(z)).");
  UniverseOptions opts;
  opts.max_term_depth = 3;
  Result<std::vector<const Term*>> u = EnumerateUniverse(f.program, opts);
  ASSERT_TRUE(u.ok());
  // z, s(z), s(s(z)).
  EXPECT_EQ(u->size(), 3u);
  EXPECT_EQ(u->back()->depth(), 3u);
}

TEST(HerbrandTest, BinaryFunctionGrowth) {
  Fixture f("p(f(a, b)).");
  UniverseOptions opts;
  opts.max_term_depth = 2;
  Result<std::vector<const Term*>> u = EnumerateUniverse(f.program, opts);
  ASSERT_TRUE(u.ok());
  // a, b, f(a,a), f(a,b), f(b,a), f(b,b).
  EXPECT_EQ(u->size(), 6u);
}

TEST(HerbrandTest, CapEnforced) {
  Fixture f("p(f(a, b)).");
  UniverseOptions opts;
  opts.max_term_depth = 5;
  opts.max_terms = 100;
  Result<std::vector<const Term*>> u = EnumerateUniverse(f.program, opts);
  EXPECT_FALSE(u.ok());
  EXPECT_EQ(u.status().code(), StatusCode::kResourceExhausted);
}

TEST(GrounderTest, InstantiatesFactsAndRules) {
  Fixture f(
      "e(a, b). e(b, c).\n"
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n");
  GroundProgram gp = testing::MustGround(f.program);
  // Facts 2, t-base 2, t-trans: e(a,b)+t(b,c) and chains.
  EXPECT_GT(gp.rule_count(), 4u);
  EXPECT_TRUE(gp.FindAtom(MustParseTerm(f.store, "t(a, c)")).has_value());
  // Irrelevant instantiations (e.g. t(c, a)) are not derivable and thus
  // should not appear as rule heads.
  auto tca = gp.FindAtom(MustParseTerm(f.store, "t(c, a)"));
  if (tca.has_value()) {
    EXPECT_TRUE(gp.RulesFor(*tca).empty());
  }
}

TEST(GrounderTest, NegativeLiteralsAreInstantiated) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b).\n");
  GroundProgram gp = testing::MustGround(f.program);
  auto win_b = gp.FindAtom(MustParseTerm(f.store, "win(b)"));
  ASSERT_TRUE(win_b.has_value());
  // win(b) appears negatively but has no rules (no move from b).
  EXPECT_TRUE(gp.RulesFor(*win_b).empty());
}

TEST(GrounderTest, NonRangeRestrictedEnumeratesUniverse) {
  Fixture f("p(X) :- not q(X). q(a). r(b).");
  GroundProgram gp = testing::MustGround(f.program);
  // X in p(X) :- not q(X) must range over {a, b}.
  EXPECT_TRUE(gp.FindAtom(MustParseTerm(f.store, "p(a)")).has_value());
  EXPECT_TRUE(gp.FindAtom(MustParseTerm(f.store, "p(b)")).has_value());
}

TEST(GrounderTest, AgreesWithFullInstantiationOnWfs) {
  // The relevant grounding must yield the same well-founded truth values
  // as the brute-force Herbrand instantiation, for every atom the full
  // instantiation registers.
  Rng rng(555);
  for (int trial = 0; trial < 25; ++trial) {
    std::string src = workload::RandomGame(rng, 4, 40);
    Fixture f(src);
    GroundingOptions opts;
    GroundProgram relevant = testing::MustGround(f.program);
    Result<GroundProgram> full = FullyInstantiate(f.program, opts);
    ASSERT_TRUE(full.ok());
    WfsModel m_rel = ComputeWfs(relevant);
    WfsModel m_full = ComputeWfs(full.value());
    for (AtomId a = 0; a < full->atom_count(); ++a) {
      const Term* atom = full->AtomTerm(a);
      TruthValue full_value = m_full.model.Value(a);
      auto rel_id = relevant.FindAtom(atom);
      TruthValue rel_value = rel_id.has_value()
                                 ? m_rel.model.Value(*rel_id)
                                 : TruthValue::kFalse;
      EXPECT_EQ(full_value, rel_value)
          << f.store.ToString(atom) << " in\n"
          << src;
    }
  }
}

// --- the indexed semi-naive grounder against the legacy oracle ---

/// A grounding as sets: rules with bodies normalized (sorted, deduped) and
/// keyed by atom terms, so atom and rule id order do not matter.
struct CanonicalGrounding {
  using Rule = std::tuple<const Term*, std::vector<const Term*>,
                          std::vector<const Term*>>;
  std::set<Rule> rules;
  std::set<const Term*> atoms;
  std::set<const Term*> truncated;

  explicit CanonicalGrounding(const GroundProgram& gp) {
    auto terms = [&](const std::vector<AtomId>& ids) {
      std::vector<const Term*> out;
      for (AtomId a : ids) out.push_back(gp.AtomTerm(a));
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
      return out;
    };
    for (const GroundRule& r : gp.rules()) {
      rules.emplace(gp.AtomTerm(r.head), terms(r.pos), terms(r.neg));
    }
    for (AtomId a = 0; a < gp.atom_count(); ++a) atoms.insert(gp.AtomTerm(a));
    truncated.insert(gp.truncated().begin(), gp.truncated().end());
  }
};

/// Grounds `src` with both grounders and requires equal rule, atom and
/// truncation sets, and that the new one emitted each distinct instance
/// exactly once. Returns the new grounder's counters.
GroundingStats ExpectMatchesOracle(const std::string& src,
                                   uint32_t term_depth = 1) {
  Fixture f(src);
  GroundingOptions opts;
  opts.universe.max_term_depth = term_depth;
  testing::LegacyRelevantGrounder legacy(f.program, opts);
  Result<GroundProgram> want = legacy.Run();
  GroundingStats stats;
  Result<GroundProgram> got = GroundRelevant(f.program, opts, nullptr, &stats);
  EXPECT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  if (!want.ok() || !got.ok()) return stats;
  CanonicalGrounding w(*want);
  CanonicalGrounding g(*got);
  EXPECT_EQ(g.rules, w.rules) << src;
  EXPECT_EQ(g.atoms, w.atoms) << src;
  EXPECT_EQ(g.truncated, w.truncated) << src;
  EXPECT_EQ(got->rule_count(), want->rule_count());
  EXPECT_EQ(stats.emitted, legacy.distinct_instances()) << src;
  return stats;
}

/// Small random programs over p/1, q/2, r/1 with the function symbol f/1,
/// repeated variables (`q(X, X)`), negation, and non-range-restricted
/// clauses (head or negative-literal variables no positive literal binds).
std::string RandomClauseProgram(Rng& rng) {
  const char* vars[] = {"X", "Y", "Z"};
  auto ground_term = [&]() -> std::string {
    switch (rng.UniformInt(0, 2)) {
      case 0: return "a";
      case 1: return "b";
      default: return "f(a)";
    }
  };
  auto term = [&]() -> std::string {
    int k = rng.UniformInt(0, 5);
    if (k == 0) return ground_term();
    if (k == 1) return StrCat("f(", vars[rng.UniformInt(0, 2)], ")");
    return vars[rng.UniformInt(0, 2)];
  };
  auto atom = [&](auto&& arg) -> std::string {
    switch (rng.UniformInt(0, 2)) {
      case 0: return StrCat("p(", arg(), ")");
      case 1: return StrCat("q(", arg(), ", ", arg(), ")");
      default: return StrCat("r(", arg(), ")");
    }
  };
  std::string src;
  for (int i = rng.UniformInt(2, 5); i > 0; --i) {
    src += atom(ground_term) + ".\n";
  }
  for (int i = rng.UniformInt(2, 5); i > 0; --i) {
    src += atom(term) + " :- ";
    for (int b = rng.UniformInt(1, 3); b > 0; --b) {
      if (rng.Chance(3, 10)) src += "not ";
      src += atom(term);
      src += b > 1 ? ", " : ".\n";
    }
  }
  return src;
}

TEST(GrounderOracleTest, GameFamiliesEmitEachRuleOnce) {
  Rng rng(2024);
  std::vector<std::string> programs = {
      workload::GameChain(40), workload::GameCycleWithTail(9, 6),
      workload::GameGrid(7, 5)};
  for (int i = 0; i < 6; ++i) {
    programs.push_back(workload::RandomGame(rng, 24 + 4 * i, 10));
    programs.push_back(workload::GameForest(rng, 3 + i, 8, 20));
    programs.push_back(workload::ReachabilityWithNegation(rng, 6 + 2 * i, 25));
  }
  for (const std::string& src : programs) {
    GroundingStats stats = ExpectMatchesOracle(src);
    Fixture f(src);
    EXPECT_EQ(stats.emitted, testing::MustGround(f.program).rule_count())
        << src;
    EXPECT_GT(stats.join_candidates, 0u);
    EXPECT_EQ(stats.truncated, 0u);
  }
}

TEST(GrounderOracleTest, RandomPropositionalPrograms) {
  // Duplicate clauses (and bodies repeating an atom) make distinct
  // instances collide after normalization, so emitted counts instances.
  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    ExpectMatchesOracle(
        workload::RandomPropositional(rng, 12 + i, 3 * (12 + i), 4));
  }
}

TEST(GrounderOracleTest, PaperExamplesWithFunctionSymbols) {
  for (uint32_t depth : {2u, 4u, 6u}) {
    ExpectMatchesOracle(workload::VanGelderProgram(), depth);
    ExpectMatchesOracle(workload::Example33Program(), depth);
  }
  ExpectMatchesOracle(workload::Example32Program());
}

TEST(GrounderOracleTest, RepeatedVariablesAndNestedPatterns) {
  GroundingStats stats = ExpectMatchesOracle(
      "e(a, a). e(a, b). e(b, f(b)).\n"
      "loop(X) :- e(X, X).\n"
      "step(X) :- e(X, f(X)).\n"
      "pair(X, Y) :- e(X, Y), e(Y, X).\n"
      "both(X) :- loop(X), loop(X), not step(X).\n",
      2);
  EXPECT_EQ(stats.truncated, 0u);
  Fixture f("e(a, a). e(a, b). loop(X) :- e(X, X).\n");
  GroundProgram gp = testing::MustGround(f.program);
  EXPECT_TRUE(gp.FindAtom(MustParseTerm(f.store, "loop(a)")).has_value());
  EXPECT_FALSE(gp.FindAtom(MustParseTerm(f.store, "loop(b)")).has_value());
}

TEST(GrounderOracleTest, RandomClausePrograms) {
  Rng rng(31337);
  uint64_t emitted = 0;
  uint64_t truncated = 0;
  for (int i = 0; i < 150; ++i) {
    GroundingStats stats = ExpectMatchesOracle(RandomClauseProgram(rng), 2);
    emitted += stats.emitted;
    truncated += stats.truncated;
  }
  // The family really exercises joins beyond the facts and the depth cap.
  EXPECT_GT(emitted, 150u * 10);
  EXPECT_GT(truncated, 0u);
}

TEST(GrounderOracleTest, DepthCapRecordsDroppedHeads) {
  // The instance for q(a) mentions s(f(a)), beyond the default cap: it is
  // dropped, q(a) is recorded and still derived, so t(a) is grounded.
  Fixture f("q(X) :- r(X), not s(f(X)).\nt(X) :- q(X).\nr(a).\n");
  GroundingStats stats;
  Result<GroundProgram> gp = GroundRelevant(f.program, {}, nullptr, &stats);
  ASSERT_TRUE(gp.ok());
  EXPECT_EQ(stats.truncated, 1u);
  ASSERT_EQ(gp->truncated().size(), 1u);
  EXPECT_EQ(gp->truncated()[0], MustParseTerm(f.store, "q(a)"));
  auto q = gp->FindAtom(MustParseTerm(f.store, "q(a)"));
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(gp->RulesFor(*q).empty());
  EXPECT_TRUE(gp->FindAtom(MustParseTerm(f.store, "t(a)")).has_value());
}

TEST(GrounderOracleTest, CancelledRunReturnsNoProgram) {
  Rng rng(5);
  Fixture f(workload::ReachabilityWithNegation(rng, 14, 25));
  CancelToken token;
  token.Cancel();
  CancelCtx ctx(&token, 0, 0, nullptr);
  Result<GroundProgram> gp = GroundRelevant(f.program, {}, &ctx, nullptr);
  ASSERT_FALSE(gp.ok());
  EXPECT_EQ(gp.status().code(), StatusCode::kCancelled);
}

TEST(GrounderTest, RuleDeduplication) {
  Fixture f("p :- q. p :- q. q.");
  GroundProgram gp = testing::MustGround(f.program);
  EXPECT_EQ(gp.rule_count(), 2u);
}

TEST(GrounderTest, BodyLiteralDeduplication) {
  Fixture f("p :- q, q, not r, not r. q.");
  GroundProgram gp = testing::MustGround(f.program);
  for (const GroundRule& r : gp.rules()) {
    if (r.pos.size() + r.neg.size() > 0 && !r.neg.empty()) {
      EXPECT_EQ(r.pos.size(), 1u);
      EXPECT_EQ(r.neg.size(), 1u);
    }
  }
}

TEST(GrounderTest, CapsAreEnforced) {
  Fixture f("p(X, Y, Z) :- not q(X, Y, Z). q(a, a, a). c(b). c(d). c(e).");
  GroundingOptions opts;
  opts.max_rules = 10;
  Result<GroundProgram> gp = GroundRelevant(f.program, opts);
  EXPECT_FALSE(gp.ok());
  EXPECT_EQ(gp.status().code(), StatusCode::kResourceExhausted);
}

TEST(RestrictTest, KeepsOnlyReachableRules) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b). move(b, c).\n"
      "move(x, y).\n");  // disconnected component
  GroundProgram gp = testing::MustGround(f.program);
  GroundProgram restricted =
      RestrictToRelevant(gp, {MustParseTerm(f.store, "win(a)")});
  EXPECT_TRUE(restricted.FindAtom(MustParseTerm(f.store, "win(b)")));
  EXPECT_FALSE(restricted.FindAtom(MustParseTerm(f.store, "win(x)")));
  EXPECT_LT(restricted.rule_count(), gp.rule_count());
  // Restriction preserves well-founded values on kept atoms (relevance).
  WfsModel full = ComputeWfs(gp);
  WfsModel sub = ComputeWfs(restricted);
  for (AtomId a = 0; a < restricted.atom_count(); ++a) {
    const Term* atom = restricted.AtomTerm(a);
    EXPECT_EQ(sub.model.Value(a), full.model.Value(*gp.FindAtom(atom)))
        << f.store.ToString(atom);
  }
}

TEST(RestrictTest, NongroundRootMatchesAllInstances) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b). move(x, y).\n");
  GroundProgram gp = testing::MustGround(f.program);
  GroundProgram restricted =
      RestrictToRelevant(gp, {MustParseTerm(f.store, "win(Z)")});
  EXPECT_TRUE(restricted.FindAtom(MustParseTerm(f.store, "win(a)")));
  EXPECT_TRUE(restricted.FindAtom(MustParseTerm(f.store, "win(x)")));
}

TEST(GroundProgramTest, OccurrenceIndexes) {
  Fixture f("p :- q, not r. s :- q. q.");
  GroundProgram gp = testing::MustGround(f.program);
  auto q = gp.FindAtom(MustParseTerm(f.store, "q"));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(gp.PositiveOccurrences(*q).size(), 2u);
  auto r = gp.FindAtom(MustParseTerm(f.store, "r"));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(gp.NegativeOccurrences(*r).size(), 1u);
}

TEST(GroundProgramTest, UnitRuleAfterIndexReadAppendsToRulesFor) {
  // `r` has rules but no unit rule. Its row is read before the unit rule
  // is added, and the next read must show the appended id.
  Fixture f("p :- q, not r. r :- q. q.");
  GroundProgram gp = testing::MustGround(f.program);
  auto r = gp.FindAtom(MustParseTerm(f.store, "r"));
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(gp.RulesFor(*r).size(), 1u);  // materializes the index
  ASSERT_FALSE(gp.FindUnitRule(*r).has_value());

  RuleId unit = gp.AddRule(GroundRule{*r, {}, {}});
  ASSERT_EQ(gp.RulesFor(*r).size(), 2u);
  EXPECT_EQ(gp.RulesFor(*r).back(), unit);  // largest id stays last
  EXPECT_EQ(gp.FindUnitRule(*r), unit);
  // The other rows and indexes are untouched by the append.
  auto q = gp.FindAtom(MustParseTerm(f.store, "q"));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(gp.PositiveOccurrences(*q).size(), 2u);
}

/// Every row of the three occurrence indexes equals an id-ordered scan of
/// `rules()`, and `FindUnitRule` equals a scan for the unit rule.
void ExpectIndexesMatchScan(const GroundProgram& gp, const std::string& ctx) {
  const size_t n = gp.atom_count();
  std::vector<std::vector<RuleId>> heads(n), pos(n), neg(n);
  std::vector<std::optional<RuleId>> unit(n);
  for (RuleId r = 0; r < gp.rule_count(); ++r) {
    const GroundRule& rule = gp.rules()[r];
    heads[rule.head].push_back(r);
    for (AtomId a : rule.pos) pos[a].push_back(r);
    for (AtomId a : rule.neg) neg[a].push_back(r);
    if (rule.pos.empty() && rule.neg.empty()) unit[rule.head] = r;
  }
  auto as_vector = [](std::span<const RuleId> row) {
    return std::vector<RuleId>(row.begin(), row.end());
  };
  for (AtomId a = 0; a < n; ++a) {
    ASSERT_EQ(as_vector(gp.RulesFor(a)), heads[a]) << ctx << " atom " << a;
    ASSERT_EQ(as_vector(gp.PositiveOccurrences(a)), pos[a])
        << ctx << " atom " << a;
    ASSERT_EQ(as_vector(gp.NegativeOccurrences(a)), neg[a])
        << ctx << " atom " << a;
    ASSERT_EQ(gp.FindUnitRule(a), unit[a]) << ctx << " atom " << a;
  }
}

TEST(GroundProgramTest, IndexesMatchScanUnderRandomInserts) {
  // Few atoms and many rules, so rows interleave in the payload: full
  // rows move, dead slots pile up and the payloads compact many times.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    TermStore store;
    GroundProgram gp(&store);
    Rng rng(seed);
    int next_atom = 0;
    auto fresh_atom = [&] {
      return gp.InternAtom(store.MakeConstant(StrCat("a", next_atom++)));
    };
    auto some_atom = [&] {
      return static_cast<AtomId>(rng.Uniform(gp.atom_count()));
    };
    for (int i = 0; i < 4; ++i) fresh_atom();
    for (int step = 0; step < 1500; ++step) {
      const std::string ctx = StrCat("seed ", seed, " step ", step);
      const uint64_t op = rng.Uniform(10);
      if (op == 0 && gp.atom_count() < 48) {
        fresh_atom();
      } else if (op == 1 && gp.rule_count() > 0) {
        // A duplicate, body reversed: deduplicated to the same id.
        const RuleId r = static_cast<RuleId>(rng.Uniform(gp.rule_count()));
        GroundRule dup = gp.rules()[r];
        std::reverse(dup.pos.begin(), dup.pos.end());
        std::reverse(dup.neg.begin(), dup.neg.end());
        const size_t before = gp.rule_count();
        ASSERT_EQ(gp.AddRule(std::move(dup)), r) << ctx;
        ASSERT_EQ(gp.rule_count(), before) << ctx;
      } else if (op == 2) {
        gp.AddRule({some_atom(), {}, {}});
      } else if (op == 3) {
        // A rule over brand-new atoms.
        const AtomId head = fresh_atom();
        gp.AddRule({head, {fresh_atom()}, {some_atom()}});
      } else {
        GroundRule rule{some_atom(), {}, {}};
        for (int k = rng.UniformInt(0, 3); k > 0; --k) {
          rule.pos.push_back(some_atom());
        }
        for (int k = rng.UniformInt(0, 2); k > 0; --k) {
          rule.neg.push_back(some_atom());
        }
        gp.AddRule(std::move(rule));
      }
      // Every row is read after every step.
      ExpectIndexesMatchScan(gp, ctx);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // A copy serves the same rows, and appending to it leaves the
    // original untouched.
    GroundProgram copy = gp;
    ExpectIndexesMatchScan(copy, StrCat("seed ", seed, " copy"));
    const std::vector<RuleId> before(gp.RulesFor(0).begin(),
                                     gp.RulesFor(0).end());
    const AtomId extra = copy.InternAtom(store.MakeConstant("extra"));
    copy.AddRule({0, {extra}, {1}});
    ExpectIndexesMatchScan(copy, StrCat("seed ", seed, " copy after insert"));
    EXPECT_EQ(std::vector<RuleId>(gp.RulesFor(0).begin(),
                                  gp.RulesFor(0).end()),
              before);
  }
}

TEST(GroundProgramTest, ToStringRendersRules) {
  Fixture f("p :- q, not r. q.");
  GroundProgram gp = testing::MustGround(f.program);
  std::string s = gp.ToString();
  EXPECT_NE(s.find("p :- q, not r."), std::string::npos);
  EXPECT_NE(s.find("q.\n"), std::string::npos);
}

}  // namespace
}  // namespace gsls
