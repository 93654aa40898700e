#include "solver/stages.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "util/csr.h"

namespace gsls::solver {

namespace {

constexpr uint32_t kInf = UINT32_MAX;

/// Stage of a true atom all of whose body stages are final (non-recursive
/// singleton fast path): least over its firing rules of the rule's latest
/// body contribution. Returns kInf when no rule fires (impossible for a
/// true atom).
uint32_t TrueStageDirect(const GroundProgram& gp, AtomId a,
                         const std::vector<uint8_t>* disabled,
                         const TruthTape& values, const StageTape& st) {
  uint32_t out = kInf;
  for (RuleId rid : gp.RulesFor(a)) {
    if (!RuleEnabledIn(disabled, rid)) continue;
    const RuleView r = gp.rule(rid);
    uint32_t v = 1;
    bool fires = true;
    for (AtomId b : r.pos) {
      if (!values.IsTrue(b)) {
        fires = false;
        break;
      }
      v = std::max(v, st.true_stage[b]);
    }
    if (!fires) continue;
    for (AtomId b : r.neg) {
      if (!values.IsFalse(b)) {
        fires = false;
        break;
      }
      v = std::max(v, st.false_stage[b] + 1);
    }
    if (fires) out = std::min(out, v);
  }
  return out;
}

/// Stage of a false atom all of whose body stages are final: U_P needs a
/// witness of unusability for every rule, so the atom falls when its last
/// rule gains one — max over rules of the rule's earliest witness.
uint32_t FalseStageDirect(const GroundProgram& gp, AtomId a,
                          const std::vector<uint8_t>* disabled,
                          const TruthTape& values, const StageTape& st) {
  uint32_t out = 1;
  for (RuleId rid : gp.RulesFor(a)) {
    if (!RuleEnabledIn(disabled, rid)) continue;
    const RuleView r = gp.rule(rid);
    uint32_t w = kInf;
    for (AtomId b : r.pos) {
      if (values.IsFalse(b)) w = std::min(w, st.false_stage[b]);
    }
    for (AtomId b : r.neg) {
      if (values.IsTrue(b)) w = std::min(w, st.true_stage[b] + 1);
    }
    // Every rule of a false head has a witness; w is finite.
    assert(w != kInf);
    out = std::max(out, w);
  }
  return out;
}

/// Joint truth/falsity stage fixpoint of one recursive component.
///
/// Events are processed in increasing stage order off one min-heap:
///   - a *truth rule* becomes ready when its last symbolic (local) body
///     literal resolves; the first ready rule of a head, in stage order, is
///     the min over rules and fixes t(head) (label-setting — truth is
///     inductive, exactly like the T̃_P^ω closure it reconstructs);
///   - a *kill* retires a rule of a false head the moment a witness becomes
///     effective (a body literal's complement entered the model strictly
///     earlier, or a lower false pos atom reached its stage).
/// After the events of a stage α are drained, one counting unfounded-set
/// pass (the same discipline as the solver's source-pointer detector)
/// finds every still-unresolved false atom with no surviving support: they
/// fall *together* at α, which is the within-round coinduction of the
/// greatest unfounded set — positive loops whose last escape died at α are
/// falsified wholesale, not one at a time.
class ComponentStageSolver {
 public:
  ComponentStageSolver(const GroundProgram& gp,
                       const AtomDependencyGraph& graph, uint32_t comp,
                       const std::vector<uint8_t>* disabled,
                       const TruthTape& values, StageTape* stages)
      : gp_(gp), graph_(graph), disabled_(disabled), values_(values),
        st_(stages), atoms_(graph.Atoms(comp)) {}

  void Run() {
    const size_t m = atoms_.size();
    tloc_.assign(m, 0);
    floc_.assign(m, 0);
    Seed();
    BuildAdjacency(m);

    // The first V_P round needs no trigger: atoms with no rules and
    // unsupported positive loops fall at stage 1 even when no event fires.
    bool need_pass = true;
    uint32_t alpha = 1;
    while (true) {
      bool killed = false;
      while (!heap_.empty() && StageOf(heap_.top()) == alpha) {
        uint64_t ev = heap_.top();
        heap_.pop();
        uint32_t idx = static_cast<uint32_t>(ev) & ~kKillBit;
        if (static_cast<uint32_t>(ev) & kKillBit) {
          FalseRule& fr = false_rules_[idx];
          if (!fr.dead && floc_[fr.head] == 0) {
            fr.dead = true;
            killed = true;
          }
        } else {
          ResolveTrue(idx, alpha);
        }
      }
      if (need_pass || killed) FalsityPass(alpha);
      need_pass = false;
      if (heap_.empty()) break;
      alpha = StageOf(heap_.top());
    }

    for (size_t i = 0; i < m; ++i) {
      // Every decided atom resolved to a finite stage; undefined stay 0.
      assert(!values_.IsTrue(atoms_[i]) || tloc_[i] != 0);
      assert(!values_.IsFalse(atoms_[i]) || floc_[i] != 0);
      st_->true_stage[atoms_[i]] = tloc_[i];
      st_->false_stage[atoms_[i]] = floc_[i];
    }
  }

 private:
  /// A rule of a true head that fires in the final model: `cur` is the
  /// running max over resolved body contributions (lower components
  /// contribute their final stages up front), `pending` the count of local
  /// body literals still symbolic.
  struct TrueRule {
    uint32_t head;  ///< local index
    uint32_t cur;
    uint32_t pending;
  };
  /// A rule of a false head; dies when a witness of unusability becomes
  /// effective. `npos_local` counts its local false pos body atoms — the
  /// candidates for a same-stage (coinductive) witness, and the rule's
  /// pending count in each falsity pass.
  struct FalseRule {
    uint32_t head;  ///< local index
    uint32_t npos_local;
    bool dead;
  };

  /// Local-atom adjacency kinds, rows `atom * 4 + kind` of one flat CSR
  /// (`adj_`): what to notify when the atom's stage resolves.
  enum AdjKind : uint32_t {
    kPosFeed = 0,  ///< atom true  -> TrueRule with it in pos body
    kNegFeed = 1,  ///< atom false -> TrueRule with it in neg body
    kPosOcc = 2,   ///< atom false -> FalseRule with it in pos body
    kNegKill = 3,  ///< atom true  -> FalseRule with it in neg body
  };

  static constexpr uint32_t kKillBit = 0x80000000u;
  static uint32_t StageOf(uint64_t ev) {
    return static_cast<uint32_t>(ev >> 32);
  }
  void Push(uint32_t stage, uint32_t payload) {
    heap_.push((uint64_t{stage} << 32) | payload);
  }

  void AddEdge(uint32_t local_atom, AdjKind kind, uint32_t rule) {
    edges_.push_back((uint64_t{local_atom * 4 + kind} << 32) | rule);
  }

  /// Counting-sorts the seeded edges into the flat per-atom adjacency —
  /// the same two-pass zero-realloc build as every other solver index.
  void BuildAdjacency(size_t m) {
    adj_.Reset(4 * m);
    for (uint64_t e : edges_) adj_.CountAt(static_cast<uint32_t>(e >> 32));
    adj_.FinishCounting();
    for (uint64_t e : edges_) {
      adj_.Fill(static_cast<uint32_t>(e >> 32), static_cast<uint32_t>(e));
    }
    adj_.FinishFilling();
  }

  std::span<const uint32_t> Adj(uint32_t local_atom, AdjKind kind) const {
    return adj_.Row(local_atom * 4 + kind);
  }

  void Seed() {
    const uint32_t comp = graph_.ComponentOf(atoms_[0]);
    for (size_t i = 0; i < atoms_.size(); ++i) {
      AtomId g = atoms_[i];
      TruthValue v = values_.Value(g);
      if (v == TruthValue::kUndefined) continue;
      for (RuleId rid : gp_.RulesFor(g)) {
        if (!RuleEnabledIn(disabled_, rid)) continue;
        const RuleView r = gp_.rule(rid);
        if (v == TruthValue::kTrue) {
          SeedTrueRule(r, static_cast<uint32_t>(i), comp);
        } else {
          SeedFalseRule(r, static_cast<uint32_t>(i), comp);
        }
      }
      // A false atom with no enabled rules seeds nothing: it is unfounded
      // in the first round, and the stage-1 pass picks it up unsupported.
    }
  }

  void SeedTrueRule(const RuleView& r, uint32_t head, uint32_t comp) {
    uint32_t cur = 1;
    uint32_t pending = 0;
    for (AtomId b : r.pos) {
      if (!values_.IsTrue(b)) return;  // rule never fires
    }
    for (AtomId b : r.neg) {
      if (!values_.IsFalse(b)) return;
    }
    uint32_t idx = static_cast<uint32_t>(true_rules_.size());
    for (AtomId b : r.pos) {
      if (graph_.ComponentOf(b) == comp) {
        ++pending;
        AddEdge(graph_.LocalIndexOf(b), kPosFeed, idx);
      } else {
        cur = std::max(cur, st_->true_stage[b]);
      }
    }
    for (AtomId b : r.neg) {
      if (graph_.ComponentOf(b) == comp) {
        ++pending;
        AddEdge(graph_.LocalIndexOf(b), kNegFeed, idx);
      } else {
        cur = std::max(cur, st_->false_stage[b] + 1);
      }
    }
    true_rules_.push_back(TrueRule{head, cur, pending});
    if (pending == 0) Push(cur, idx);
  }

  void SeedFalseRule(const RuleView& r, uint32_t head, uint32_t comp) {
    uint32_t idx = static_cast<uint32_t>(false_rules_.size());
    uint32_t npos_local = 0;
    uint32_t static_kill = kInf;
    for (AtomId b : r.pos) {
      if (!values_.IsFalse(b)) continue;  // true/undefined: never a witness
      if (graph_.ComponentOf(b) == comp) {
        ++npos_local;
        AddEdge(graph_.LocalIndexOf(b), kPosOcc, idx);
      } else {
        static_kill = std::min(static_kill, st_->false_stage[b]);
      }
    }
    for (AtomId b : r.neg) {
      if (!values_.IsTrue(b)) continue;
      if (graph_.ComponentOf(b) == comp) {
        AddEdge(graph_.LocalIndexOf(b), kNegKill, idx);
      } else {
        static_kill = std::min(static_kill, st_->true_stage[b] + 1);
      }
    }
    false_rules_.push_back(FalseRule{head, npos_local, false});
    if (static_kill != kInf) Push(static_kill, idx | kKillBit);
  }

  void ResolveTrue(uint32_t rule, uint32_t stage) {
    uint32_t head = true_rules_[rule].head;
    if (tloc_[head] != 0) return;  // a cheaper rule already fixed the min
    tloc_[head] = stage;
    for (uint32_t tr : Adj(head, kPosFeed)) {
      TrueRule& t = true_rules_[tr];
      t.cur = std::max(t.cur, stage);
      if (--t.pending == 0) Push(t.cur, tr);
    }
    // `not head` is now refuted from the next round on: rules of false
    // heads leaning on it gain a witness at stage+1.
    for (uint32_t fk : Adj(head, kNegKill)) Push(stage + 1, fk | kKillBit);
  }

  /// One greatest-unfounded-set layer at stage `alpha`: counting supported
  /// check over the unresolved false atoms; whoever has no surviving rule
  /// whose local support chain stays inside the supported set falls now.
  void FalsityPass(uint32_t alpha) {
    const size_t m = atoms_.size();
    need_.assign(false_rules_.size(), 0);
    supported_.assign(m, 0);
    queue_.clear();

    auto support = [&](uint32_t a) {
      if (supported_[a] == 0) {
        supported_[a] = 1;
        queue_.push_back(a);
      }
    };
    for (uint32_t fr = 0; fr < false_rules_.size(); ++fr) {
      const FalseRule& f = false_rules_[fr];
      if (f.dead || floc_[f.head] != 0) continue;
      // Alive rules only reference unresolved local false atoms (a pos
      // witness resolving marks every rule over it dead), so the pending
      // count is just the seeded degree.
      need_[fr] = f.npos_local;
      if (need_[fr] == 0) support(f.head);
    }
    for (size_t qi = 0; qi < queue_.size(); ++qi) {
      uint32_t a = queue_[qi];
      for (uint32_t fr : Adj(a, kPosOcc)) {
        const FalseRule& f = false_rules_[fr];
        if (f.dead || floc_[f.head] != 0 || need_[fr] == 0) continue;
        if (--need_[fr] == 0) support(f.head);
      }
    }
    for (uint32_t i = 0; i < m; ++i) {
      if (floc_[i] == 0 && supported_[i] == 0 &&
          values_.IsFalse(atoms_[i])) {
        Fall(i, alpha);
      }
    }
  }

  void Fall(uint32_t atom, uint32_t alpha) {
    floc_[atom] = alpha;
    // A witness at `alpha` unusable-izes these rules for every later round
    // too; no event needed — deadness is checked before each pass.
    for (uint32_t fr : Adj(atom, kPosOcc)) false_rules_[fr].dead = true;
    // `not atom` holds from this round on: truth rules leaning on it
    // resolve that literal at alpha + 1.
    for (uint32_t tr : Adj(atom, kNegFeed)) {
      TrueRule& t = true_rules_[tr];
      t.cur = std::max(t.cur, alpha + 1);
      if (--t.pending == 0) Push(t.cur, tr);
    }
  }

  const GroundProgram& gp_;
  const AtomDependencyGraph& graph_;
  const std::vector<uint8_t>* disabled_;
  const TruthTape& values_;
  StageTape* st_;
  std::span<const AtomId> atoms_;

  std::vector<uint32_t> tloc_, floc_;  ///< resolved stages; 0 = pending
  std::vector<TrueRule> true_rules_;
  std::vector<FalseRule> false_rules_;
  std::vector<uint64_t> edges_;  ///< seeded (atom*4+kind, rule) pairs
  Csr<uint32_t> adj_;            ///< rows `atom*4+kind` (see AdjKind)
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> heap_;

  // Falsity-pass scratch, reused across stages.
  std::vector<uint32_t> need_;
  std::vector<uint8_t> supported_;
  std::vector<uint32_t> queue_;
};

}  // namespace

void ReconstructComponentStages(const GroundProgram& gp,
                                const AtomDependencyGraph& graph,
                                uint32_t comp,
                                const std::vector<uint8_t>* disabled,
                                const TruthTape& values, StageTape* stages) {
  std::span<const AtomId> atoms = graph.Atoms(comp);
  if (!graph.IsRecursive(comp)) {
    // Singleton without a self-loop: every body stage is final — one pass
    // over its rules, no machinery. The hot path on stratified chains.
    AtomId a = atoms[0];
    stages->true_stage[a] = 0;
    stages->false_stage[a] = 0;
    switch (values.Value(a)) {
      case TruthValue::kTrue: {
        uint32_t t = TrueStageDirect(gp, a, disabled, values, *stages);
        assert(t != kInf);
        stages->true_stage[a] = t;
        break;
      }
      case TruthValue::kFalse:
        stages->false_stage[a] = FalseStageDirect(gp, a, disabled, values,
                                                  *stages);
        break;
      case TruthValue::kUndefined: break;
    }
    return;
  }
  ComponentStageSolver(gp, graph, comp, disabled, values, stages).Run();
}

}  // namespace gsls::solver
