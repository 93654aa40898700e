#include "ground/grounder.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "term/substitution.h"
#include "util/strings.h"

namespace gsls {

namespace {

/// One top-level argument of a compiled atom pattern.
struct ArgCode {
  enum class Kind : uint8_t { kGround, kVar, kNested };
  Kind kind = Kind::kGround;
  uint32_t slot = 0;           ///< kVar: the clause's variable slot
  const Term* term = nullptr;  ///< kGround: the value; kNested: the pattern
};

/// An atom of a clause, compiled against the clause's variable slots.
struct AtomCode {
  const Term* atom = nullptr;  ///< the source pattern
  uint32_t pred = 0;           ///< dense predicate slot
  std::vector<ArgCode> args;
};

/// One step of a join plan: match positive literal `lit` against the
/// derived atoms of its predicate that the semi-naive order admits.
struct JoinStep {
  uint32_t lit = 0;
  /// The literal precedes the pinned one in the body: it ranges over atoms
  /// derived strictly before the pinned atom (else: no later than it).
  bool before_pinned = false;
  /// A top-level argument already bound when the step runs, probed
  /// through the argument index; -1 scans the predicate.
  int32_t probe_arg = -1;
};

struct CompiledClause {
  AtomCode head;
  std::vector<AtomCode> pos;  ///< positive body literals, in body order
  std::vector<AtomCode> neg;
  std::vector<VarId> vars;    ///< slot -> variable
  /// Slots no positive literal binds: enumerated over the universe.
  std::vector<uint32_t> free_slots;
  /// `plans[i]` joins the other positive literals once `pos[i]` is pinned.
  std::vector<std::vector<JoinStep>> plans;

  uint32_t SlotOf(VarId v) const {
    return static_cast<uint32_t>(std::find(vars.begin(), vars.end(), v) -
                                 vars.begin());
  }
};

/// A clause to re-run when an atom of some predicate is derived, with the
/// atom pinned to positive literal `lit`.
struct Trigger {
  uint32_t clause;
  uint32_t lit;
};

/// Predicate slot of a fact no compiled clause mentions.
constexpr uint32_t kNoPred = UINT32_MAX;

bool IsGroundFact(const Clause& clause) {
  return clause.body.empty() && clause.head->ground();
}

/// The derived atoms of one predicate grouped by their value at one
/// argument position. `keys` holds the distinct values, found through
/// `ids` by address (terms are hash-consed); the positions (into
/// `PredAtoms::atoms`) of key k form a list threaded through `next` in
/// increasing position, from `first[k]` to `last[k]`. Flat arrays only: no
/// allocation per key or per atom.
struct ArgIndex {
  bool built = false;
  IdTable ids;
  std::vector<const Term*> keys;
  std::vector<uint32_t> first;
  std::vector<uint32_t> last;
  std::vector<uint32_t> next;  ///< by position; `kNone` ends a list

  /// The index of `key` in `keys`, or `IdTable::kNone`.
  uint32_t Key(const Term* key) const {
    return ids.Find(AddressHash(key),
                    [&](uint32_t k) { return keys[k] == key; });
  }

  /// The first position whose value is `key`, or `IdTable::kNone`.
  uint32_t First(const Term* key) const {
    const uint32_t k = Key(key);
    return k == IdTable::kNone ? IdTable::kNone : first[k];
  }

  /// Appends position `at`, one past every position added so far.
  void Add(const Term* key, uint32_t at) {
    assert(at == next.size());
    next.push_back(IdTable::kNone);
    const uint32_t k = Key(key);
    if (k == IdTable::kNone) {
      ids.Insert(AddressHash(key), static_cast<uint32_t>(keys.size()));
      keys.push_back(key);
      first.push_back(at);
      last.push_back(at);
      return;
    }
    next[last[k]] = at;
    last[k] = at;
  }
};

/// Per-predicate state: the derived atoms in derivation order, their ids
/// and global derivation sequence numbers, the lazily built argument
/// indexes, and the trigger list.
struct PredAtoms {
  std::vector<const Term*> atoms;
  std::vector<AtomId> ids;
  std::vector<uint32_t> seqs;
  std::vector<ArgIndex> by_arg;  ///< per argument position
  std::vector<Trigger> triggers;
};

/// The indexed semi-naive relevant grounder. Clauses are compiled once
/// (variable slots, a join plan per pinned literal, a predicate -> trigger
/// index); derived atoms are then processed in derivation order, each
/// firing only its triggers. With the pinned atom at sequence number s,
/// literals before the pinned one join atoms with sequence < s and
/// literals after it atoms with sequence <= s, so every instance is
/// produced exactly once — when its latest body atom is processed, pinned
/// at the first literal that atom occupies.
class RelevantGrounder {
 public:
  RelevantGrounder(const Program& program, const GroundingOptions& opts,
                   CancelCtx* cancel)
      : program_(program),
        store_(program.store()),
        opts_(opts),
        cap_(opts.max_atom_arg_depth != 0 ? opts.max_atom_arg_depth
                                          : opts.universe.max_term_depth),
        cancel_(cancel),
        tick_(cancel),
        ground_(&program.store()) {}

  const GroundingStats& stats() const { return stats_; }

  Result<GroundProgram> Run() {
    if (cancel_ != nullptr && cancel_->Checkpoint()) return Aborted();
    Compile();
    // The universe is needed only to enumerate variables no positive
    // literal binds (non-range-restricted clauses).
    if (std::any_of(clauses_.begin(), clauses_.end(),
                    [](const CompiledClause& c) {
                      return !c.free_slots.empty();
                    })) {
      Result<std::vector<const Term*>> universe =
          EnumerateUniverse(program_, opts_.universe);
      if (!universe.ok()) return universe.status();
      universe_ = std::move(universe.value());
    }

    // Every distinct ground fact becomes one atom and one unit rule: size
    // the program's stores for that lower bound once.
    const size_t facts = static_cast<size_t>(std::count_if(
        program_.clauses().begin(), program_.clauses().end(), IsGroundFact));
    ground_.Reserve(facts, facts);

    // Seed: clauses without positive literals fire once, in program
    // order; ground facts skip compilation altogether.
    const CompiledClause* next = clauses_.data();
    for (const Clause& clause : program_.clauses()) {
      if (IsGroundFact(clause)) {
        auto slot = pred_slot_.find(clause.head->functor());
        neg_terms_.clear();
        if (!Add(clause.head,
                 slot == pred_slot_.end() ? kNoPred : slot->second, 0,
                 /*body_too_deep=*/false)) {
          return status_;
        }
        continue;
      }
      const CompiledClause& c = *next++;
      if (c.pos.empty() && !Emit(c)) return status_;
    }
    // Propagate in derivation order; `queue_[s]` is the atom with
    // sequence number s.
    for (size_t s = 0; s < queue_.size(); ++s) {
      const auto [pred, at] = queue_[s];
      const PredAtoms& pa = preds_[pred];
      const Term* atom = pa.atoms[at];
      const AtomId id = pa.ids[at];
      for (const Trigger& t : pa.triggers) {
        const CompiledClause& c = clauses_[t.clause];
        if (!Probe()) return status_;
        if (MatchAtom(c, c.pos[t.lit], atom)) {
          matched_[t.lit] = id;
          const std::vector<JoinStep>& plan = c.plans[t.lit];
          SetLimits(c, plan, static_cast<uint32_t>(s));
          if (!Join(c, plan, 0)) return status_;
        }
        Undo(0);
      }
    }
    return std::move(ground_);
  }

 private:
  // --- compilation ---

  uint32_t PredSlot(FunctorId f) {
    auto [it, fresh] =
        pred_slot_.emplace(f, static_cast<uint32_t>(preds_.size()));
    if (fresh) {
      preds_.emplace_back();
      preds_.back().by_arg.resize(store_.symbols().FunctorArity(f));
    }
    return it->second;
  }

  AtomCode CompileAtom(const CompiledClause& c, const Term* atom) {
    AtomCode code;
    code.atom = atom;
    code.pred = PredSlot(atom->functor());
    for (const Term* arg : atom->args()) {
      ArgCode a;
      if (arg->ground()) {
        a.kind = ArgCode::Kind::kGround;
        a.term = arg;
      } else if (arg->IsVar()) {
        a.kind = ArgCode::Kind::kVar;
        a.slot = c.SlotOf(arg->var());
      } else {
        a.kind = ArgCode::Kind::kNested;
        a.term = arg;
      }
      code.args.push_back(a);
    }
    return code;
  }

  /// Join order for `pinned`: greedily the literal with the most top-level
  /// arguments bound so far (ties in body order), probing the first bound
  /// argument through its index.
  std::vector<JoinStep> Plan(const CompiledClause& c, uint32_t pinned) {
    std::vector<uint8_t> bound(c.vars.size(), 0);
    auto bind_all = [&](const AtomCode& code) {
      std::vector<VarId> vars;
      CollectVars(code.atom, &vars);
      for (VarId v : vars) bound[c.SlotOf(v)] = 1;
    };
    auto is_bound = [&](const ArgCode& a) {
      return a.kind == ArgCode::Kind::kGround ||
             (a.kind == ArgCode::Kind::kVar && bound[a.slot] != 0);
    };
    bind_all(c.pos[pinned]);
    std::vector<uint8_t> done(c.pos.size(), 0);
    done[pinned] = 1;
    std::vector<JoinStep> plan;
    for (size_t n = 1; n < c.pos.size(); ++n) {
      int best = -1;
      int best_bound = -1;
      for (uint32_t i = 0; i < c.pos.size(); ++i) {
        if (done[i] != 0) continue;
        int nb = 0;
        for (const ArgCode& a : c.pos[i].args) nb += is_bound(a) ? 1 : 0;
        if (nb > best_bound) {
          best = static_cast<int>(i);
          best_bound = nb;
        }
      }
      JoinStep step;
      step.lit = static_cast<uint32_t>(best);
      step.before_pinned = step.lit < pinned;
      const std::vector<ArgCode>& args = c.pos[step.lit].args;
      for (size_t k = 0; k < args.size(); ++k) {
        if (is_bound(args[k])) {
          step.probe_arg = static_cast<int32_t>(k);
          break;
        }
      }
      plan.push_back(step);
      done[step.lit] = 1;
      bind_all(c.pos[step.lit]);
    }
    return plan;
  }

  void Compile() {
    const std::vector<Clause>& clauses = program_.clauses();
    size_t max_vars = 0;
    size_t max_pos = 0;
    for (const Clause& clause : clauses) {
      if (IsGroundFact(clause)) continue;
      CompiledClause c;
      c.vars = clause.Variables();
      c.head = CompileAtom(c, clause.head);
      std::vector<uint8_t> in_pos(c.vars.size(), 0);
      for (const Literal& l : clause.body) {
        if (!l.positive) {
          c.neg.push_back(CompileAtom(c, l.atom));
          continue;
        }
        c.pos.push_back(CompileAtom(c, l.atom));
        std::vector<VarId> vars;
        CollectVars(l.atom, &vars);
        for (VarId v : vars) in_pos[c.SlotOf(v)] = 1;
      }
      for (uint32_t s = 0; s < c.vars.size(); ++s) {
        if (in_pos[s] == 0) c.free_slots.push_back(s);
      }
      for (uint32_t i = 0; i < c.pos.size(); ++i) c.plans.push_back(Plan(c, i));
      max_vars = std::max(max_vars, c.vars.size());
      max_pos = std::max(max_pos, c.pos.size());
      clauses_.push_back(std::move(c));
    }
    for (uint32_t ci = 0; ci < clauses_.size(); ++ci) {
      const CompiledClause& c = clauses_[ci];
      for (uint32_t i = 0; i < c.pos.size(); ++i) {
        preds_[c.pos[i].pred].triggers.push_back(Trigger{ci, i});
      }
    }
    bind_.assign(max_vars, nullptr);
    matched_.assign(max_pos, 0);
    limits_.assign(max_pos, 0);
  }

  // --- bindings ---

  void Bind(uint32_t slot, const Term* t) {
    bind_[slot] = t;
    trail_.push_back(slot);
  }

  void Undo(size_t mark) {
    while (trail_.size() > mark) {
      bind_[trail_.back()] = nullptr;
      trail_.pop_back();
    }
  }

  /// One-way match of a nested pattern against a ground term.
  bool MatchNested(const CompiledClause& c, const Term* pattern,
                   const Term* t) {
    if (pattern->ground()) return pattern == t;
    if (pattern->IsVar()) {
      const uint32_t slot = c.SlotOf(pattern->var());
      if (bind_[slot] != nullptr) return bind_[slot] == t;
      Bind(slot, t);
      return true;
    }
    if (t->functor() != pattern->functor()) return false;
    for (uint32_t i = 0; i < pattern->arity(); ++i) {
      if (!MatchNested(c, pattern->arg(i), t->arg(i))) return false;
    }
    return true;
  }

  /// Matches a derived atom of the code's predicate, extending the
  /// bindings (the caller undoes them).
  bool MatchAtom(const CompiledClause& c, const AtomCode& code,
                 const Term* atom) {
    for (size_t i = 0; i < code.args.size(); ++i) {
      const ArgCode& a = code.args[i];
      const Term* v = atom->arg(static_cast<uint32_t>(i));
      switch (a.kind) {
        case ArgCode::Kind::kGround:
          if (a.term != v) return false;
          break;
        case ArgCode::Kind::kVar:
          if (bind_[a.slot] == nullptr) {
            Bind(a.slot, v);
          } else if (bind_[a.slot] != v) {
            return false;
          }
          break;
        case ArgCode::Kind::kNested:
          if (!MatchNested(c, a.term, v)) return false;
          break;
      }
    }
    return true;
  }

  const Term* BuildNested(const CompiledClause& c, const Term* pattern) {
    if (pattern->ground()) return pattern;
    if (pattern->IsVar()) return bind_[c.SlotOf(pattern->var())];
    std::vector<const Term*> args;
    args.reserve(pattern->arity());
    for (const Term* a : pattern->args()) args.push_back(BuildNested(c, a));
    return store_.MakeCompound(pattern->functor(), args);
  }

  /// The code's atom under the current (complete) bindings.
  const Term* Build(const CompiledClause& c, const AtomCode& code) {
    if (code.atom->ground()) return code.atom;
    build_args_.clear();
    for (const ArgCode& a : code.args) {
      switch (a.kind) {
        case ArgCode::Kind::kGround: build_args_.push_back(a.term); break;
        case ArgCode::Kind::kVar: build_args_.push_back(bind_[a.slot]); break;
        case ArgCode::Kind::kNested:
          build_args_.push_back(BuildNested(c, a.term));
          break;
      }
    }
    return store_.MakeCompound(code.atom->functor(), build_args_);
  }

  // --- joins ---

  /// Per step of `plan`: how many of its predicate's atoms (a prefix of
  /// `PredAtoms::atoms`) the semi-naive order admits with the pinned atom
  /// at sequence number `s`.
  void SetLimits(const CompiledClause& c, const std::vector<JoinStep>& plan,
                 uint32_t s) {
    for (size_t k = 0; k < plan.size(); ++k) {
      const std::vector<uint32_t>& seqs = preds_[c.pos[plan[k].lit].pred].seqs;
      auto end = plan[k].before_pinned
                     ? std::lower_bound(seqs.begin(), seqs.end(), s)
                     : std::upper_bound(seqs.begin(), seqs.end(), s);
      limits_[k] = static_cast<uint32_t>(end - seqs.begin());
    }
  }

  /// Counts one join candidate and polls cancellation on the stride.
  bool Probe() {
    ++stats_.join_candidates;
    if (!tick_.Tick()) return true;
    status_ = Aborted();
    return false;
  }

  const ArgIndex& IndexOf(PredAtoms& pa, uint32_t arg) {
    ArgIndex& index = pa.by_arg[arg];
    if (!index.built) {
      index.built = true;
      for (uint32_t p = 0; p < pa.atoms.size(); ++p) {
        index.Add(pa.atoms[p]->arg(arg), p);
      }
    }
    return index;
  }

  bool Candidate(const CompiledClause& c, const std::vector<JoinStep>& plan,
                 size_t k, const PredAtoms& pa, uint32_t at) {
    if (!Probe()) return false;
    const size_t mark = trail_.size();
    bool ok = true;
    if (MatchAtom(c, c.pos[plan[k].lit], pa.atoms[at])) {
      matched_[plan[k].lit] = pa.ids[at];
      ok = Join(c, plan, k + 1);
    }
    Undo(mark);
    return ok;
  }

  /// Runs plan steps `k..` under the current bindings, emitting every
  /// completion. Indexing by position throughout: emission may append to
  /// the very atom lists and argument indexes being iterated (never within
  /// the limits, which only admit atoms derived no later than the pinned
  /// one).
  bool Join(const CompiledClause& c, const std::vector<JoinStep>& plan,
            size_t k) {
    if (k == plan.size()) return Emit(c);
    const JoinStep& step = plan[k];
    const AtomCode& code = c.pos[step.lit];
    PredAtoms& pa = preds_[code.pred];
    const uint32_t limit = limits_[k];
    if (step.probe_arg < 0) {
      for (uint32_t at = 0; at < limit; ++at) {
        if (!Candidate(c, plan, k, pa, at)) return false;
      }
      return true;
    }
    const ArgCode& a = code.args[static_cast<size_t>(step.probe_arg)];
    const Term* key = a.kind == ArgCode::Kind::kGround ? a.term : bind_[a.slot];
    const ArgIndex& index = IndexOf(pa, static_cast<uint32_t>(step.probe_arg));
    for (uint32_t at = index.First(key); at != IdTable::kNone && at < limit;
         at = index.next[at]) {
      if (!Candidate(c, plan, k, pa, at)) return false;
    }
    return true;
  }

  // --- emission ---

  /// Emits the instance(s) of `c` under the join's bindings: the free
  /// slots (non-range-restricted variables) range over the universe.
  bool Emit(const CompiledClause& c) {
    if (c.free_slots.empty()) return AddInstance(c);
    std::vector<size_t> idx(c.free_slots.size(), 0);
    bool ok = true;
    while (ok) {
      for (size_t i = 0; i < c.free_slots.size(); ++i) {
        bind_[c.free_slots[i]] = universe_[idx[i]];
      }
      ok = AddInstance(c);
      if (ok && tick_.Tick()) {
        status_ = Aborted();
        ok = false;
      }
      size_t pos = 0;
      for (; pos < idx.size(); ++pos) {
        if (++idx[pos] < universe_.size()) break;
        idx[pos] = 0;
      }
      if (pos == idx.size()) break;
    }
    for (uint32_t s : c.free_slots) bind_[s] = nullptr;
    return ok;
  }

  bool TooDeep(const Term* atom) const {
    for (const Term* arg : atom->args()) {
      if (arg->depth() > cap_) return true;
    }
    return false;
  }

  bool AddInstance(const CompiledClause& c) {
    const Term* head = Build(c, c.head);
    neg_terms_.clear();
    bool body_too_deep = false;
    for (const AtomCode& n : c.neg) {
      neg_terms_.push_back(Build(c, n));
      body_too_deep = body_too_deep || TooDeep(neg_terms_.back());
    }
    // Positive atoms were derived, hence within the cap already.
    return Add(head, c.head.pred, c.pos.size(), body_too_deep);
  }

  /// Adds `head :- matched_[0, npos), not neg_terms_` and derives `head`
  /// (of predicate slot `pred`; `kNoPred` when no clause body mentions
  /// it). An instance beyond the depth cap is dropped and its head
  /// recorded instead; a head within the cap is still derived.
  bool Add(const Term* head, uint32_t pred, size_t npos, bool body_too_deep) {
    if (body_too_deep || TooDeep(head)) {
      ++stats_.truncated;
      ground_.MarkTruncated(head);
      if (!TooDeep(head)) Derive(pred, head, ground_.InternAtom(head));
      return AtomsWithinCap();
    }
    if (ground_.rule_count() >= opts_.max_rules) {
      status_ = Status::ResourceExhausted(
          StrCat("grounding exceeds max_rules=", opts_.max_rules));
      return false;
    }
    const AtomId head_id = ground_.InternAtom(head);
    neg_ids_.clear();
    for (const Term* n : neg_terms_) neg_ids_.push_back(ground_.InternAtom(n));
    if (!AtomsWithinCap()) return false;
    ++stats_.emitted;
    ground_.AddRule(head_id, std::span(matched_.data(), npos), neg_ids_);
    Derive(pred, head, head_id);
    return true;
  }

  bool AtomsWithinCap() {
    if (ground_.atom_count() <= opts_.max_atoms) return true;
    status_ = Status::ResourceExhausted(
        StrCat("grounding exceeds max_atoms=", opts_.max_atoms));
    return false;
  }

  void Derive(uint32_t pred, const Term* atom, AtomId id) {
    // Only predicates some positive literal mentions are ever joined.
    if (pred == kNoPred || preds_[pred].triggers.empty()) return;
    if (id >= derived_.size()) derived_.resize(id + 1, 0);
    if (derived_[id] != 0) return;
    derived_[id] = 1;
    PredAtoms& pa = preds_[pred];
    const uint32_t at = static_cast<uint32_t>(pa.atoms.size());
    pa.atoms.push_back(atom);
    pa.ids.push_back(id);
    pa.seqs.push_back(static_cast<uint32_t>(queue_.size()));
    for (uint32_t k = 0; k < pa.by_arg.size(); ++k) {
      if (pa.by_arg[k].built) pa.by_arg[k].Add(atom->arg(k), at);
    }
    queue_.emplace_back(pred, at);
  }

  Status Aborted() const {
    if (cancel_->outcome() == SolveOutcome::kDeadlineExceeded) {
      return Status::DeadlineExceeded(
          "grounding stopped by its deadline or step budget");
    }
    return Status::Cancelled("grounding cancelled");
  }

  const Program& program_;
  TermStore& store_;
  GroundingOptions opts_;
  uint32_t cap_;
  CancelCtx* cancel_;
  StridedCheckpoint tick_;
  GroundingStats stats_;
  Status status_;
  GroundProgram ground_;
  std::vector<const Term*> universe_;

  std::vector<CompiledClause> clauses_;
  std::unordered_map<FunctorId, uint32_t> pred_slot_;
  std::vector<PredAtoms> preds_;
  /// (predicate slot, position in its atom list), by sequence number.
  std::vector<std::pair<uint32_t, uint32_t>> queue_;
  std::vector<uint8_t> derived_;  ///< by AtomId

  // Join scratch: slot bindings with their undo trail, the atom id matched
  // per positive literal, and the semi-naive limit per plan step.
  std::vector<const Term*> bind_;
  std::vector<uint32_t> trail_;
  std::vector<AtomId> matched_;
  std::vector<uint32_t> limits_;
  // Emission scratch, reused by every instance: the argument list of the
  // atom being built and the negative body as terms and as ids.
  std::vector<const Term*> build_args_;
  std::vector<const Term*> neg_terms_;
  std::vector<AtomId> neg_ids_;
};

}  // namespace

Result<GroundProgram> GroundRelevant(const Program& program,
                                     const GroundingOptions& opts) {
  return GroundRelevant(program, opts, nullptr, nullptr);
}

Result<GroundProgram> GroundRelevant(const Program& program,
                                     const GroundingOptions& opts,
                                     CancelCtx* cancel, GroundingStats* stats) {
  GSLS_TRACE_SPAN("ground.relevant", program.clauses().size());
  RelevantGrounder grounder(program, opts, cancel);
  Result<GroundProgram> out = grounder.Run();
  if (stats != nullptr) *stats = grounder.stats();
  return out;
}

Result<GroundProgram> FullyInstantiate(const Program& program,
                                       const GroundingOptions& opts) {
  Result<std::vector<const Term*>> universe =
      EnumerateUniverse(program, opts.universe);
  if (!universe.ok()) return universe.status();
  TermStore& store = program.store();
  GroundProgram out(&store);
  for (const Clause& clause : program.clauses()) {
    std::vector<VarId> vars = clause.Variables();
    std::vector<size_t> idx(vars.size(), 0);
    while (true) {
      Substitution s;
      for (size_t i = 0; i < vars.size(); ++i) {
        s.Bind(vars[i], universe.value()[idx[i]]);
      }
      Clause grounded = ApplyToClause(store, s, clause);
      if (out.rule_count() >= opts.max_rules) {
        return Status::ResourceExhausted(
            StrCat("instantiation exceeds max_rules=", opts.max_rules));
      }
      GroundRule rule;
      rule.head = out.InternAtom(grounded.head);
      for (const Literal& l : grounded.body) {
        AtomId id = out.InternAtom(l.atom);
        (l.positive ? rule.pos : rule.neg).push_back(id);
      }
      out.AddRule(std::move(rule));
      if (vars.empty()) break;
      size_t pos = 0;
      for (; pos < vars.size(); ++pos) {
        if (++idx[pos] < universe.value().size()) break;
        idx[pos] = 0;
      }
      if (pos == vars.size()) break;
    }
  }
  return out;
}

GroundProgram RestrictToRelevant(const GroundProgram& gp,
                                 const std::vector<const Term*>& roots) {
  TermStore& store = gp.store();
  // Find seed atoms: registered atoms unifying with some root.
  std::vector<bool> relevant(gp.atom_count(), false);
  std::vector<AtomId> work;
  auto mark = [&](AtomId id) {
    if (!relevant[id]) {
      relevant[id] = true;
      work.push_back(id);
    }
  };
  for (const Term* root : roots) {
    if (root->ground()) {
      if (auto id = gp.FindAtom(root)) mark(*id);
      continue;
    }
    for (AtomId id = 0; id < gp.atom_count(); ++id) {
      if (gp.AtomTerm(id)->functor() != root->functor()) continue;
      Substitution s;
      if (Unify(root, gp.AtomTerm(id), &s)) mark(id);
    }
  }
  while (!work.empty()) {
    AtomId a = work.back();
    work.pop_back();
    for (RuleId rid : gp.RulesFor(a)) {
      const RuleView r = gp.rule(rid);
      for (AtomId b : r.pos) mark(b);
      for (AtomId b : r.neg) mark(b);
    }
  }
  GroundProgram out(&store);
  // Preserve atom registration for every relevant atom (even ruleless ones,
  // so queries about them resolve to ids).
  for (AtomId id = 0; id < gp.atom_count(); ++id) {
    if (relevant[id]) out.InternAtom(gp.AtomTerm(id));
  }
  std::vector<AtomId> pos;
  std::vector<AtomId> neg;
  for (RuleId rid = 0; rid < gp.rule_count(); ++rid) {
    const RuleView r = gp.rule(rid);
    if (!relevant[r.head]) continue;
    const AtomId head = out.InternAtom(gp.AtomTerm(r.head));
    pos.clear();
    neg.clear();
    for (AtomId b : r.pos) pos.push_back(out.InternAtom(gp.AtomTerm(b)));
    for (AtomId b : r.neg) neg.push_back(out.InternAtom(gp.AtomTerm(b)));
    out.AddRule(head, pos, neg);
  }
  // Truncation marks travel with their atoms; heads beyond the cap were
  // never registered, so they are kept as they are.
  for (const Term* head : gp.truncated()) {
    std::optional<AtomId> id = gp.FindAtom(head);
    if (!id.has_value() || relevant[*id]) out.MarkTruncated(head);
  }
  return out;
}

}  // namespace gsls
