#ifndef GSLS_SLDNF_SLDNF_H_
#define GSLS_SLDNF_SLDNF_H_

#include "core/engine.h"
#include "lang/program.h"

namespace gsls {

/// Options for the SLDNF baseline.
struct SldnfOptions {
  size_t max_depth = 2048;     ///< Resolution depth bound per (sub)tree.
  size_t max_work = 2'000'000; ///< Total resolution steps.
  size_t max_answers = 100'000;
};

/// Clark's SLDNF-resolution with a safe computation rule: leftmost literal,
/// skipping nonground negative literals; a ground negative literal is
/// resolved by a subsidiary finitely-failed SLDNF tree.
///
/// This is the paper's Section 7 comparison baseline: with a safe rule it
/// is *sound* with respect to the well-founded semantics, but *incomplete*,
/// because it does not treat infinite branches as failed — where global
/// SLS-resolution fails a positive loop, SLDNF diverges (reported here as
/// `kUnknown` once a budget trips). It also has no notion of the undefined
/// truth value: recursion through negation likewise diverges.
class SldnfEngine {
 public:
  explicit SldnfEngine(const Program& program, SldnfOptions opts = {});

  /// Evaluates a goal. Statuses: `kSuccessful` (with answers), `kFailed`
  /// (finite failure), `kFloundered`, or `kUnknown` (budget exhausted —
  /// the run would not have terminated or needs more resources).
  QueryResult Solve(const Goal& goal);

  QueryResult SolveAtom(const Term* atom);

 private:
  struct Outcome {
    bool any_success = false;
    bool any_floundered = false;
    bool any_unknown = false;
    std::vector<Answer> answers;
  };

  void Expand(const Goal& goal, const Substitution& theta, size_t depth,
              const Goal& root_goal, bool collect_answers, Outcome* out);

  const Program& program_;
  TermStore& store_;
  SldnfOptions opts_;
  size_t work_ = 0;
};

}  // namespace gsls

#endif  // GSLS_SLDNF_SLDNF_H_
