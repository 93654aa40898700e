#include "lang/parser.h"

#include <gtest/gtest.h>

#include "lang/transforms.h"
#include "test_support.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;

// The token-level assertions, stated through the parser.
TEST(ParserTest, TokenizesCoreSyntax) {
  TermStore store;
  Program p = MustParseProgram(store, "p(X) :- q, not r(a). % comment\n");
  ASSERT_EQ(p.size(), 1u);
  const Clause& c = p.clauses()[0];
  EXPECT_EQ(store.symbols().FunctorName(c.head->functor()), "p");
  EXPECT_TRUE(c.head->arg(0)->IsVar());
  ASSERT_EQ(c.body.size(), 2u);
  EXPECT_TRUE(c.body[0].positive);
  EXPECT_EQ(store.ToString(c.body[0].atom), "q");
  EXPECT_FALSE(c.body[1].positive);
  EXPECT_EQ(store.ToString(c.body[1].atom), "r(a)");
  Goal g = MustParseQuery(store, "?- p.");
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(store.ToString(g[0].atom), "p");
  // `?-` after a comment is its own token, which a program rejects.
  Result<Program> r =
      ParseProgram(store, "p(X) :- q, not r(a). % comment\n?- p.");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "expected predicate name at line 2 col 1 (got '?-' '?-')");
}

TEST(ParserTest, TracksPositions) {
  TermStore store;
  Result<Program> r = ParseProgram(store, "p.\nq");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "expected '.' at line 2 col 2 (got end of input)");
}

TEST(ParserTest, BackslashPlusIsNot) {
  TermStore store;
  Program p = MustParseProgram(store, "p :- \\+ q.");
  ASSERT_EQ(p.clauses()[0].body.size(), 1u);
  EXPECT_FALSE(p.clauses()[0].body[0].positive);
}

TEST(ParserTest, QuotedAtoms) {
  TermStore store;
  Program p = MustParseProgram(store, "'Strange Atom'('it''s').");
  const Term* head = p.clauses()[0].head;
  EXPECT_EQ(store.symbols().FunctorName(head->functor()), "Strange Atom");
  EXPECT_EQ(store.symbols().FunctorName(head->arg(0)->functor()), "it's");
}

TEST(ParserTest, RejectsGarbage) {
  TermStore store;
  EXPECT_FALSE(ParseProgram(store, "p :- q @ r.").ok());
  EXPECT_FALSE(ParseProgram(store, "'unterminated").ok());
}

// Every malformed input with its exact message: the lexer's errors win
// over the parser's (the whole text is lexed before a parse error is
// reported), columns count bytes (a tab is one), and the end of input
// after a trailing comment sits where the comment starts.
TEST(ParserTest, GoldenErrorMessages) {
  enum class Entry { kProgram, kQuery, kTerm };
  struct Case {
    Entry entry;
    const char* src;
    const char* message;
  };
  const Case cases[] = {
      {Entry::kProgram, "p('abc).",
       "unterminated quoted atom at line 1 col 3"},
      {Entry::kProgram, "p :- q.\n'a\nb'.",
       "unterminated quoted atom at line 2 col 1"},
      {Entry::kProgram, "p :- q @ r.",
       "unexpected character '@' at line 1 col 8"},
      {Entry::kProgram, "p :- \\ q.",
       "unexpected character '\\' at line 1 col 6"},
      {Entry::kProgram, "p :- q.\n\xc3\xa9",
       "unexpected character '\xc3' at line 2 col 1"},
      {Entry::kProgram, "p :- . q @",
       "unexpected character '@' at line 1 col 10"},
      {Entry::kProgram, "p :- q\nr.",
       "expected '.' at line 2 col 1 (got name 'r')"},
      {Entry::kProgram, "p.\r\nq r.",
       "expected '.' at line 2 col 3 (got name 'r')"},
      {Entry::kProgram, "p :- 123abc.",
       "expected '.' at line 1 col 9 (got name 'abc')"},
      {Entry::kProgram, "p :- q '' .",
       "expected '.' at line 1 col 8 (got name)"},
      {Entry::kProgram, "p :- q 'it''s'.",
       "expected '.' at line 1 col 8 (got name 'it's')"},
      {Entry::kProgram, "p(a, b :- q.",
       "expected ')' at line 1 col 8 (got ':-' ':-')"},
      {Entry::kProgram, "p(a,,b).",
       "expected term at line 1 col 5 (got ',' ',')"},
      {Entry::kProgram, "X :- p.",
       "expected predicate name at line 1 col 1 (got variable 'X')"},
      {Entry::kProgram, "p :- X.",
       "expected predicate name at line 1 col 6 (got variable 'X')"},
      {Entry::kProgram, "p :- not (q.",
       "expected ')' at line 1 col 12 (got '.' '.')"},
      {Entry::kProgram, "p :- not (X).",
       "expected predicate name at line 1 col 11 (got variable 'X')"},
      {Entry::kProgram, "p :- not not q.",
       "expected predicate name at line 1 col 10 (got 'not' 'not')"},
      {Entry::kProgram, "p :- q,",
       "expected predicate name at line 1 col 8 (got end of input)"},
      {Entry::kProgram, "p(a", "expected ')' at line 1 col 4 (got end of input)"},
      {Entry::kProgram, "p :- q % trailing",
       "expected '.' at line 1 col 8 (got end of input)"},
      {Entry::kProgram, "% header\np.\nq :- r, s\n",
       "expected '.' at line 4 col 1 (got end of input)"},
      {Entry::kProgram, "% c1\n% c2\np.\nq(a).\nr :- s t.",
       "expected '.' at line 5 col 8 (got name 't')"},
      {Entry::kProgram, "p.\n\t\tq r.",
       "expected '.' at line 2 col 5 (got name 'r')"},
      {Entry::kProgram, "p.\n\tq :- @.",
       "unexpected character '@' at line 2 col 7"},
      {Entry::kProgram, "p :- q ?- r.",
       "expected '.' at line 1 col 8 (got '?-' '?-')"},
      {Entry::kQuery, "?- p :- q.",
       "expected end of input at line 1 col 6 (got ':-' ':-')"},
      {Entry::kQuery, "?- p(X) q.",
       "expected end of input at line 1 col 9 (got name 'q')"},
      {Entry::kQuery, "?- X.",
       "expected predicate name at line 1 col 4 (got variable 'X')"},
      {Entry::kQuery, "p(X), .",
       "expected predicate name at line 1 col 7 (got '.' '.')"},
      {Entry::kTerm, "f(a))",
       "expected end of input at line 1 col 5 (got ')' ')')"},
      {Entry::kTerm, "f(", "expected term at line 1 col 3 (got end of input)"},
      {Entry::kTerm, "", "expected term at line 1 col 1 (got end of input)"},
  };
  for (const Case& c : cases) {
    TermStore store;
    Status status;
    switch (c.entry) {
      case Entry::kProgram: status = ParseProgram(store, c.src).status(); break;
      case Entry::kQuery: status = ParseQuery(store, c.src).status(); break;
      case Entry::kTerm: status = ParseTerm(store, c.src).status(); break;
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.src;
    EXPECT_EQ(status.message(), c.message) << c.src;
  }
}

TEST(ParserTest, ParsesFactsRulesAndQueries) {
  TermStore store;
  Result<Program> p = ParseProgram(store,
                                   "e(a, b).\n"
                                   "t(X, Y) :- e(X, Y).\n"
                                   "t(X, Y) :- e(X, Z), t(Z, Y).\n");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->size(), 3u);
  EXPECT_TRUE(p->clauses()[0].IsFact());
  EXPECT_EQ(p->clauses()[2].body.size(), 2u);
}

TEST(ParserTest, SharedVariablesWithinClause) {
  TermStore store;
  Program p = MustParseProgram(store, "p(X, X) :- q(X).");
  const Clause& c = p.clauses()[0];
  EXPECT_EQ(c.head->arg(0), c.head->arg(1));
  EXPECT_EQ(c.head->arg(0), c.body[0].atom->arg(0));
  EXPECT_EQ(c.Variables().size(), 1u);
}

TEST(ParserTest, VariablesNotSharedAcrossClauses) {
  TermStore store;
  Program p = MustParseProgram(store, "p(X). q(X).");
  EXPECT_NE(p.clauses()[0].head->arg(0), p.clauses()[1].head->arg(0));
}

TEST(ParserTest, AnonymousVariableAlwaysFresh) {
  TermStore store;
  Program p = MustParseProgram(store, "p(_, _).");
  EXPECT_NE(p.clauses()[0].head->arg(0), p.clauses()[0].head->arg(1));
}

TEST(ParserTest, NegationForms) {
  TermStore store;
  Program p = MustParseProgram(store, "p :- not q, \\+ r, not (s).");
  ASSERT_EQ(p.clauses()[0].body.size(), 3u);
  for (const Literal& l : p.clauses()[0].body) EXPECT_FALSE(l.positive);
}

TEST(ParserTest, IntegersAreConstants) {
  TermStore store;
  Program p = MustParseProgram(store, "age(tom, 42).");
  EXPECT_EQ(store.ToString(p.clauses()[0].head), "age(tom,42)");
}

TEST(ParserTest, ErrorsCarryPositions) {
  TermStore store;
  Result<Program> r = ParseProgram(store, "p :- q\nr.");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(ParserTest, RejectsVariableAsAtom) {
  TermStore store;
  EXPECT_FALSE(ParseProgram(store, "X :- p.").ok());
  EXPECT_FALSE(ParseProgram(store, "p :- X.").ok());
}

TEST(ParserTest, QueryParsing) {
  TermStore store;
  Goal g = MustParseQuery(store, "?- p(X), not q(X).");
  ASSERT_EQ(g.size(), 2u);
  EXPECT_TRUE(g[0].positive);
  EXPECT_FALSE(g[1].positive);
  // Shared variable across query literals.
  EXPECT_EQ(g[0].atom->arg(0), g[1].atom->arg(0));
}

TEST(ParserTest, QueryWithoutPrefixOrDot) {
  TermStore store;
  Goal g = MustParseQuery(store, "p(a)");
  ASSERT_EQ(g.size(), 1u);
}

TEST(PrinterTest, RoundTripsPrograms) {
  const char* sources[] = {
      "p.",
      "p(a, b).",
      "p(X) :- q(X), not r(X).",
      "t(X, Y) :- e(X, Z), t(Z, Y).",
      "w(X) :- not u(X).",
      "e(s(0), s(s(0))).",
      "u(X) :- e(Y, X), not w(Y).",
  };
  for (const char* src : sources) {
    TermStore store1;
    Program p1 = MustParseProgram(store1, src);
    std::string printed = p1.ToString();
    TermStore store2;
    Program p2 = MustParseProgram(store2, printed);
    EXPECT_EQ(printed, p2.ToString()) << "source: " << src;
  }
}

// Every workload generator's text survives print -> re-parse: the same
// clause count, printed to the same text.
TEST(PrinterTest, RoundTripsEveryGenerator) {
  Rng rng(23);
  const std::string sources[] = {
      workload::VanGelderProgram(),
      workload::Example32Program(),
      workload::Example33Program(),
      workload::GameChain(12),
      workload::GameCycleWithTail(5, 3),
      workload::RandomGame(rng, 10, 25),
      workload::GameForest(rng, 3, 6, 30),
      workload::GameGrid(4, 3),
      workload::RandomPropositional(rng, 8, 20, 4),
      workload::ReachabilityWithNegation(rng, 10, 20),
  };
  for (const std::string& src : sources) {
    TermStore store1;
    Program p1 = MustParseProgram(store1, src);
    ASSERT_GT(p1.size(), 0u) << src;
    std::string printed = p1.ToString();
    TermStore store2;
    Result<Program> p2 = ParseProgram(store2, printed);
    ASSERT_TRUE(p2.ok()) << p2.status().ToString() << "\n" << printed;
    EXPECT_EQ(p2->size(), p1.size()) << src;
    EXPECT_EQ(p2->ToString(), printed) << src;
  }
}

TEST(ClauseTest, RenameApartPreservesStructure) {
  TermStore store;
  Program p = MustParseProgram(store, "p(X, Y) :- q(X), not r(Y, X).");
  const Clause& original = p.clauses()[0];
  Clause renamed = RenameApart(store, original);
  EXPECT_NE(renamed.head->arg(0), original.head->arg(0));
  // Shared structure must be preserved.
  EXPECT_EQ(renamed.head->arg(0), renamed.body[0].atom->arg(0));
  EXPECT_EQ(renamed.head->arg(0), renamed.body[1].atom->arg(1));
  EXPECT_EQ(renamed.ToString(store).substr(0, 2),
            original.ToString(store).substr(0, 2));
}

TEST(ClauseTest, RangeRestriction) {
  TermStore store;
  Program p = MustParseProgram(store,
                               "p(X) :- q(X).\n"
                               "p(X) :- q(Y).\n"
                               "p(X) :- q(X), not r(X).\n"
                               "p(X) :- not r(X).\n");
  EXPECT_TRUE(IsRangeRestricted(p.clauses()[0]));
  EXPECT_FALSE(IsRangeRestricted(p.clauses()[1]));
  EXPECT_TRUE(IsRangeRestricted(p.clauses()[2]));
  EXPECT_FALSE(IsRangeRestricted(p.clauses()[3]));
}

TEST(ProgramTest, SymbolInventory) {
  Fixture f("p(a, f(b)) :- q(g(a, c)).");
  auto constants = f.program.Constants();
  EXPECT_EQ(constants.size(), 3u);  // a, b, c
  auto funcs = f.program.FunctionSymbols();
  EXPECT_EQ(funcs.size(), 2u);  // f/1, g/2
  EXPECT_FALSE(f.program.IsFunctionFree());
  Fixture datalog("p(a) :- q(a, b).");
  EXPECT_TRUE(datalog.program.IsFunctionFree());
}

TEST(ProgramTest, ClauseIndexByPredicate) {
  Fixture f("p(a). p(b). q :- p(a).");
  FunctorId p1 = f.store.symbols().FindFunctor("p", 1);
  EXPECT_EQ(f.program.ClausesFor(p1).size(), 2u);
  FunctorId q0 = f.store.symbols().FindFunctor("q", 0);
  EXPECT_EQ(f.program.ClausesFor(q0).size(), 1u);
  EXPECT_EQ(f.program.ClausesFor(kInvalidFunctor - 1).size(), 0u);
}

TEST(TransformTest, AugmentAddsFreshSymbols) {
  Fixture f("p(a).");
  Program aug = AugmentProgram(f.program);
  EXPECT_EQ(aug.size(), f.program.size() + 1);
  // The augmented clause mentions none of P's symbols and adds one
  // constant and one function symbol to the universe.
  EXPECT_EQ(aug.Constants().size(), 2u);
  EXPECT_EQ(aug.FunctionSymbols().size(), 1u);
}

TEST(TransformTest, TermGuardMakesRangeRestricted) {
  Fixture f("p(X) :- not q(X). q(a).");
  EXPECT_FALSE(f.program.IsRangeRestricted());
  Program guarded = AddTermGuard(f.program);
  EXPECT_TRUE(guarded.IsRangeRestricted());
  // Guarded program defines term/1 for each constant.
  FunctorId term1 = f.store.symbols().FindFunctor(kTermGuardName, 1);
  ASSERT_NE(term1, kInvalidFunctor);
  EXPECT_GE(guarded.ClausesFor(term1).size(), 1u);
}

TEST(TransformTest, TermGuardCoversFunctionSymbols) {
  Fixture f("p(X) :- not q(f(X)). q(a).");
  Program guarded = AddTermGuard(f.program);
  // term(a) fact plus term(f(X)) :- term(X) rule.
  FunctorId term1 = f.store.symbols().FindFunctor(kTermGuardName, 1);
  EXPECT_EQ(guarded.ClausesFor(term1).size(), 2u);
  Goal goal = MustParseQuery(f.store, "p(X)");
  Goal guarded_goal = GuardGoal(guarded, f.store, goal);
  EXPECT_EQ(guarded_goal.size(), 2u);
  EXPECT_TRUE(guarded_goal[1].positive);
}

}  // namespace
}  // namespace gsls
