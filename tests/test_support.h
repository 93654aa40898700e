#ifndef GSLS_TESTS_TEST_SUPPORT_H_
#define GSLS_TESTS_TEST_SUPPORT_H_

#include <string>
#include <string_view>

#include "core/engine.h"
#include "ground/grounder.h"
#include "lang/parser.h"
#include "lang/program.h"
#include "solver/incremental.h"
#include "term/term_store.h"
#include "util/strings.h"

namespace gsls::testing {

/// A parsed program plus its owning store, for one-line test setup.
struct Fixture {
  TermStore store;
  Program program{&store};

  explicit Fixture(std::string_view src) {
    program = MustParseProgram(store, src);
  }
};

/// Grounds with defaults suitable for function-free test programs.
inline GroundProgram MustGround(const Program& program,
                                uint32_t term_depth = 1) {
  GroundingOptions opts;
  opts.universe.max_term_depth = term_depth;
  Result<GroundProgram> gp = GroundRelevant(program, opts);
  if (!gp.ok()) {
    fprintf(stderr, "grounding failed: %s\n", gp.status().ToString().c_str());
    abort();
  }
  return std::move(gp.value());
}

/// Independent reference: a fresh `GroundProgram` holding exactly the
/// enabled rules of an incremental solver, for the alternating-fixpoint
/// and V_P oracles. Atoms are interned in the same order, so ids (and
/// hence interpretations) compare directly.
inline GroundProgram RebuildEnabled(const IncrementalSolver& inc,
                                    TermStore& store) {
  const GroundProgram& gp = inc.program();
  GroundProgram out(&store);
  for (AtomId a = 0; a < gp.atom_count(); ++a) out.InternAtom(gp.AtomTerm(a));
  for (RuleId r = 0; r < gp.rule_count(); ++r) {
    if (inc.RuleEnabled(r)) out.AddRule(gp.rule(r));
  }
  return out;
}

/// A `QueryResult` as text: status, root level (`?` when inexact), the
/// floundered flag and the `work` / `negation_nodes` counts on one line,
/// then one line per answer in order, with its level. The golden tests of
/// the top-down procedures compare these strings.
inline std::string RenderQueryResult(const TermStore& store,
                                     const QueryResult& r) {
  std::string out =
      StrCat(GoalStatusName(r.status), " level ", r.level.ToString(),
             r.level_exact ? "" : "?", r.floundered_somewhere ? " fl" : "",
             " work ", r.work, " neg ", r.negation_nodes, "\n");
  for (const Answer& a : r.answers) {
    out += StrCat("  ", a.theta.ToString(store), " @", a.level.ToString(),
                  a.level_exact ? "" : "?", "\n");
  }
  return out;
}

}  // namespace gsls::testing

#endif  // GSLS_TESTS_TEST_SUPPORT_H_
