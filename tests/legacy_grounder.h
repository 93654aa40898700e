#ifndef GSLS_TESTS_LEGACY_GROUNDER_H_
#define GSLS_TESTS_LEGACY_GROUNDER_H_

// Test-only oracle for `GroundRelevant`: the original scan-and-unify
// relevant grounder. For every dequeued atom it rescans every clause x
// body literal, joins the other positive literals by unifying against
// *all* derived atoms of the predicate (copying a `Substitution` per
// candidate), and leaves duplicate instances to `GroundProgram::AddRule`.
// Slow, but it shares no join code with the library, so rule and atom
// sets can be compared program by program (tests/ground_test.cc).
//
// Depth-cap policy is the library's: an instance mentioning an atom
// deeper than the cap is dropped and its head recorded with
// `MarkTruncated`; a head within the cap is still interned and derived.

#include <deque>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ground/grounder.h"
#include "term/substitution.h"
#include "util/strings.h"

namespace gsls::testing {

class LegacyRelevantGrounder {
 public:
  LegacyRelevantGrounder(const Program& program, const GroundingOptions& opts)
      : program_(program),
        store_(program.store()),
        opts_(opts),
        ground_(&program.store()) {}

  Result<GroundProgram> Run() {
    Result<std::vector<const Term*>> universe =
        EnumerateUniverse(program_, opts_.universe);
    if (!universe.ok()) return universe.status();
    universe_ = std::move(universe.value());

    for (size_t ci = 0; ci < program_.clauses().size(); ++ci) {
      Substitution empty;
      Status s = MatchBody(ci, /*delta_pos=*/SIZE_MAX, nullptr, 0, empty);
      if (!s.ok()) return s;
    }
    while (!queue_.empty()) {
      const Term* atom = queue_.front();
      queue_.pop_front();
      for (size_t ci = 0; ci < program_.clauses().size(); ++ci) {
        const Clause& clause = program_.clauses()[ci];
        for (size_t li = 0; li < clause.body.size(); ++li) {
          if (!clause.body[li].positive) continue;
          if (clause.body[li].predicate() != atom->functor()) continue;
          Substitution empty;
          Status s = MatchBody(ci, li, atom, 0, empty);
          if (!s.ok()) return s;
        }
      }
    }
    return std::move(ground_);
  }

  /// Distinct (clause, instantiated atom tuple) pairs handed to `AddRule`
  /// — what a grounder that emits each instance once must emit.
  size_t distinct_instances() const { return instances_.size(); }

 private:
  Status MatchBody(size_t ci, size_t delta_pos, const Term* delta_atom,
                   size_t next, const Substitution& subst) {
    const Clause& clause = program_.clauses()[ci];
    if (next == clause.body.size()) return EmitRule(ci, subst);
    const Literal& lit = clause.body[next];
    if (!lit.positive) {
      return MatchBody(ci, delta_pos, delta_atom, next + 1, subst);
    }
    if (next == delta_pos) {
      Substitution extended = subst;
      if (Unify(lit.atom, delta_atom, &extended)) {
        return MatchBody(ci, delta_pos, delta_atom, next + 1, extended);
      }
      return Status::Ok();
    }
    const Term* walked = subst.Apply(store_, lit.atom);
    auto it = derived_by_pred_.find(walked->functor());
    if (it == derived_by_pred_.end()) return Status::Ok();
    const std::vector<const Term*>& candidates = it->second;
    for (size_t i = 0; i < candidates.size(); ++i) {
      Substitution extended = subst;
      if (Unify(lit.atom, candidates[i], &extended)) {
        Status s = MatchBody(ci, delta_pos, delta_atom, next + 1, extended);
        if (!s.ok()) return s;
      }
    }
    return Status::Ok();
  }

  Status EmitRule(size_t ci, const Substitution& subst) {
    Clause grounded = ApplyToClause(store_, subst, program_.clauses()[ci]);
    std::vector<VarId> free_vars = grounded.Variables();
    if (free_vars.empty()) return AddGroundRule(ci, grounded);
    std::vector<size_t> idx(free_vars.size(), 0);
    while (true) {
      Substitution completion;
      for (size_t i = 0; i < free_vars.size(); ++i) {
        completion.Bind(free_vars[i], universe_[idx[i]]);
      }
      Status s = AddGroundRule(ci, ApplyToClause(store_, completion, grounded));
      if (!s.ok()) return s;
      size_t pos = 0;
      for (; pos < free_vars.size(); ++pos) {
        if (++idx[pos] < universe_.size()) break;
        idx[pos] = 0;
      }
      if (pos == free_vars.size()) break;
    }
    return Status::Ok();
  }

  Status AddGroundRule(size_t ci, const Clause& clause) {
    uint32_t cap = opts_.max_atom_arg_depth != 0
                       ? opts_.max_atom_arg_depth
                       : opts_.universe.max_term_depth;
    auto too_deep = [cap](const Term* atom) {
      for (const Term* arg : atom->args()) {
        if (arg->depth() > cap) return true;
      }
      return false;
    };
    bool dropped = too_deep(clause.head);
    for (const Literal& l : clause.body) dropped = dropped || too_deep(l.atom);
    if (dropped) {
      ground_.MarkTruncated(clause.head);
      if (!too_deep(clause.head)) {
        ground_.InternAtom(clause.head);
        Derive(clause.head);
      }
      return Status::Ok();
    }
    if (ground_.rule_count() >= opts_.max_rules) {
      return Status::ResourceExhausted(
          StrCat("grounding exceeds max_rules=", opts_.max_rules));
    }
    std::vector<const Term*> key{clause.head};
    GroundRule rule;
    rule.head = ground_.InternAtom(clause.head);
    for (const Literal& l : clause.body) {
      key.push_back(l.atom);
      AtomId id = ground_.InternAtom(l.atom);
      (l.positive ? rule.pos : rule.neg).push_back(id);
    }
    if (ground_.atom_count() > opts_.max_atoms) {
      return Status::ResourceExhausted(
          StrCat("grounding exceeds max_atoms=", opts_.max_atoms));
    }
    instances_.emplace(ci, std::move(key));
    ground_.AddRule(std::move(rule));
    Derive(clause.head);
    return Status::Ok();
  }

  void Derive(const Term* atom) {
    if (!derived_.insert(atom).second) return;
    derived_by_pred_[atom->functor()].push_back(atom);
    queue_.push_back(atom);
  }

  const Program& program_;
  TermStore& store_;
  GroundingOptions opts_;
  GroundProgram ground_;
  std::vector<const Term*> universe_;
  std::unordered_set<const Term*> derived_;
  std::unordered_map<FunctorId, std::vector<const Term*>> derived_by_pred_;
  std::deque<const Term*> queue_;
  std::set<std::pair<size_t, std::vector<const Term*>>> instances_;
};

}  // namespace gsls::testing

#endif  // GSLS_TESTS_LEGACY_GROUNDER_H_
