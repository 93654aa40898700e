#include "analysis/dynamic_condensation.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "analysis/scc.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace gsls {

namespace {

/// Label stride of a fresh build: `Label(c) == c << kFreshBits`.
constexpr uint8_t kFreshBits = 32;
/// Labels live in [0, 2^kLabelBits).
constexpr int kLabelBits = 63;
constexpr uint64_t kLabelSpace = uint64_t{1} << kLabelBits;
/// Density threshold base of the block relabel: a block of 2^i labels is
/// sparse enough when it holds fewer than (2 / kDensity)^i components.
constexpr double kDensity = 1.5;
/// Anchor of a Pearce–Kelly slot that directly follows the previous slot.
constexpr uint32_t kChained = UINT32_MAX - 1;

}  // namespace

std::string DynamicCondensation::Stats::ToString() const {
  return StrCat("inserts=", inserts, " removals=", removals,
                " windows=", windows, " window_atoms=", window_atoms,
                " window_us=", window_ns / 1000, " merges=", merges,
                " splits=", splits, " pk_regions=", pk_regions,
                " pk_region_comps=", pk_region_comps,
                " relabels=", relabels, " relabel_comps=", relabel_comps);
}

DynamicCondensation::DynamicCondensation(
    const GroundProgram& gp, const std::vector<uint8_t>* disabled) {
  Rebuild(gp, disabled);
}

void DynamicCondensation::Rebuild(const GroundProgram& gp,
                                  const std::vector<uint8_t>* disabled) {
  graph_ = AtomDependencyGraph(gp, disabled);
  const uint32_t n = graph_.id_bound();
  prev_.resize(n);
  next_.resize(n);
  for (uint32_t c = 0; c < n; ++c) {
    prev_[c] = c == 0 ? kNone : c - 1;
    next_[c] = c + 1 == n ? kNone : c + 1;
  }
  first_ = n == 0 ? kNone : 0;
  last_ = n == 0 ? kNone : n - 1;
  dead_atoms_ = 0;
  repaired_ = false;
}

uint32_t DynamicCondensation::AllocId() {
  AtomDependencyGraph& g = graph_;
  if (!g.free_.empty()) {
    uint32_t c = g.free_.back();
    g.free_.pop_back();
    return c;
  }
  g.begin_.push_back(0);
  g.size_.push_back(0);
  g.label_.push_back(0);
  g.internal_neg_.push_back(0);
  g.recursive_.push_back(0);
  prev_.push_back(kNone);
  next_.push_back(kNone);
  return g.id_bound() - 1;
}

void DynamicCondensation::AddAtoms(size_t new_atom_count) {
  AtomDependencyGraph& g = graph_;
  for (AtomId a = static_cast<AtomId>(g.comp_of_.size()); a < new_atom_count;
       ++a) {
    const uint32_t c = AllocId();
    g.comp_of_.push_back(c);
    g.local_of_.push_back(0);
    g.begin_[c] = static_cast<uint32_t>(g.comp_atoms_.size());
    g.size_[c] = 1;
    g.comp_atoms_.push_back(a);
    g.internal_neg_[c] = 0;
    g.recursive_[c] = 0;
    g.label_[c] = last_ == kNone ? 0 : g.label_[last_] + MakeRoom(last_, 1);
    LinkAfter(last_, c);
  }
}

void DynamicCondensation::LinkAfter(uint32_t pos, uint32_t c) {
  const uint32_t after = pos == kNone ? first_ : next_[pos];
  prev_[c] = pos;
  next_[c] = after;
  (pos == kNone ? first_ : next_[pos]) = c;
  (after == kNone ? last_ : prev_[after]) = c;
}

void DynamicCondensation::Unlink(uint32_t c) {
  (prev_[c] == kNone ? first_ : next_[prev_[c]]) = next_[c];
  (next_[c] == kNone ? last_ : prev_[next_[c]]) = prev_[c];
  prev_[c] = next_[c] = kNone;
}

uint64_t DynamicCondensation::RoomEnd(uint32_t c, uint32_t n) const {
  if (next_[c] != kNone) return graph_.label_[next_[c]];
  const uint64_t label = graph_.label_[c];
  const uint64_t want = (uint64_t{n} + 1) << kFreshBits;
  return kLabelSpace - label > want ? label + want : kLabelSpace;
}

uint64_t DynamicCondensation::MakeRoom(uint32_t c, uint32_t n) {
  std::vector<uint64_t>& label = graph_.label_;
  if (RoomEnd(c, n) - label[c] > n) {
    return (RoomEnd(c, n) - label[c]) / (n + 1);
  }
  // Grow an aligned block [lo, lo + 2^level) around Label(c) until it
  // holds few enough components (counting the n to place), then spread
  // them evenly over it, leaving n free slots after `c`. The members are
  // exactly the list run whose labels fall in the block, so walking the
  // list outward from `c` finds them and the relabel keeps the global
  // order. Bender et al. show the relabelled run is O(log C) amortized
  // per placement.
  ++stats_.relabels;
  uint32_t left = c;
  uint32_t right = c;
  uint64_t members = 1;
  uint64_t lo = 0;
  int level = 1;
  for (;; ++level) {
    lo = label[c] >> level << level;
    const uint64_t hi = lo + (uint64_t{1} << level);
    while (prev_[left] != kNone && label[prev_[left]] >= lo) {
      left = prev_[left];
      ++members;
    }
    while (next_[right] != kNone && label[next_[right]] < hi) {
      right = next_[right];
      ++members;
    }
    if (level == kLabelBits ||
        static_cast<double>(members + n) <
            std::pow(2.0 / kDensity, level)) {
      break;
    }
  }
  stats_.relabel_comps += members;
  const uint64_t step = (uint64_t{1} << level) / (members + n);
  uint64_t slot = 0;
  for (uint32_t x = left;; x = next_[x]) {
    label[x] = lo + slot * step;
    slot += x == c ? uint64_t{n} + 1 : 1;
    if (x == right) break;
  }
  return (RoomEnd(c, n) - label[c]) / (n + 1);
}

void DynamicCondensation::CompactAtoms() {
  AtomDependencyGraph& g = graph_;
  std::vector<AtomId> atoms;
  atoms.reserve(g.comp_of_.size());
  for (uint32_t c = 0; c < g.id_bound(); ++c) {
    const uint32_t begin = static_cast<uint32_t>(atoms.size());
    atoms.insert(atoms.end(), g.comp_atoms_.begin() + g.begin_[c],
                 g.comp_atoms_.begin() + g.begin_[c] + g.size_[c]);
    g.begin_[c] = begin;
  }
  g.comp_atoms_ = std::move(atoms);
  dead_atoms_ = 0;
}

void DynamicCondensation::SplitComponent(
    const GroundProgram& gp, const std::vector<uint8_t>* disabled, uint32_t c,
    CondensationRepair* out, CancelCtx* cancel) {
  // Latch-only cancellation: the ticks below poll the ctx (latching the
  // outcome and counting toward fault/step budgets) but their return value
  // is deliberately ignored — a repair must always complete structurally,
  // since a half-written condensation has no consistent rollback state.
  // The latched abort takes effect at the caller's next solve checkpoint.
  StridedCheckpoint tick(cancel);
  AtomDependencyGraph& g = graph_;
  const uint32_t abegin = g.begin_[c];
  const uint32_t w = g.size_[c];

  GSLS_TRACE_SPAN("condense.window", w);
  const uint64_t t0 = obs::NowNs();

  ++stats_.windows;
  stats_.window_atoms += w;

  old_window_atoms_.assign(g.comp_atoms_.begin() + abegin,
                           g.comp_atoms_.begin() + abegin + w);

  // Induced-subgraph adjacency over the component's ranks, built in two
  // passes of `internal_edges`. Edges leaving the component are final
  // dependencies and cannot lie on a cycle inside it.
  auto internal_edges = [&](uint32_t i, auto&& edge) {
    (void)tick.Tick();
    for (RuleId rid : gp.RulesFor(old_window_atoms_[i])) {
      if (!RuleEnabledIn(disabled, rid)) continue;
      const RuleView r = gp.rule(rid);
      for (AtomId b : r.pos) {
        if (g.comp_of_[b] == c) edge(g.local_of_[b]);
      }
      for (AtomId b : r.neg) {
        if (g.comp_of_[b] == c) edge(g.local_of_[b]);
      }
    }
  };
  split_adj_.Reset(w);
  for (uint32_t i = 0; i < w; ++i) {
    internal_edges(i, [&](uint32_t) { split_adj_.CountAt(i); });
  }
  split_adj_.FinishCounting();
  for (uint32_t i = 0; i < w; ++i) {
    internal_edges(i, [&](uint32_t j) { split_adj_.Fill(i, j); });
  }
  split_adj_.FinishFilling();

  // Callees-first emission, as in the full builder, so the pieces come
  // out in dependency order among themselves.
  new_atoms_.clear();
  new_offsets_.assign(1, 0);
  ForEachScc(
      split_adj_,
      [&](std::span<const uint32_t> members) {
        for (uint32_t v : members) new_atoms_.push_back(old_window_atoms_[v]);
        new_offsets_.push_back(static_cast<uint32_t>(new_atoms_.size()));
      },
      [&] { (void)tick.Tick(); });

  const uint32_t pieces = static_cast<uint32_t>(new_offsets_.size() - 1);
  if (pieces == 1) {
    // The component survived whole. Tarjan may have re-emitted its members
    // in another order, but its slice, local indexes and label stand:
    // rewriting them would invalidate every local id a warm entry is keyed
    // by. Only the flags can change.
    g.RecomputeFlags(gp, disabled, c);
    stats_.window_ns += obs::NowNs() - t0;
    return;
  }
  out->recondensed = true;

  // Labels: the first piece keeps Label(c); the others go evenly into
  // the gap up to the next live label. Every external body component of
  // the pieces is labelled below Label(c) and every external head
  // component at or above that next label, so the pieces are
  // order-correct, and no other label lies in the gap.
  const uint64_t step = MakeRoom(c, pieces - 1);
  const uint64_t base = g.label_[c];

  // Write the pieces back into the old slice; the first keeps id `c`.
  std::copy(new_atoms_.begin(), new_atoms_.end(),
            g.comp_atoms_.begin() + abegin);
  uint32_t prev_piece = c;
  for (uint32_t i = 0; i < pieces; ++i) {
    const uint32_t id = i == 0 ? c : AllocId();
    g.begin_[id] = abegin + new_offsets_[i];
    g.size_[id] = new_offsets_[i + 1] - new_offsets_[i];
    g.label_[id] = base + i * step;
    if (i > 0) LinkAfter(prev_piece, id);
    prev_piece = id;
    uint32_t rank = 0;
    for (AtomId a : g.Atoms(id)) {
      g.comp_of_[a] = id;
      g.local_of_[a] = rank++;
    }
    out->dirty.push_back(id);
  }
  out->written = pieces;
  ++stats_.splits;
  repaired_ = true;

  // Exact flags once every piece's membership is final. The pieces are
  // consecutive in the label-order list, starting at `c`.
  for (uint32_t i = 0, id = c; i < pieces; ++i, id = next_[id]) {
    g.RecomputeFlags(gp, disabled, id);
  }
  stats_.window_ns += obs::NowNs() - t0;
}

void DynamicCondensation::NarrowedInsertRepair(
    const GroundProgram& gp, const std::vector<uint8_t>* disabled, RuleId r,
    uint32_t ch, uint32_t cmax, CondensationRepair* out, CancelCtx* cancel) {
  // Latch-only cancellation, as in SplitComponent: the repair always
  // completes structurally.
  StridedCheckpoint tick(cancel);
  AtomDependencyGraph& g = graph_;
  const uint64_t lo = g.label_[ch];
  const uint64_t hi = g.label_[cmax];

  GSLS_TRACE_SPAN("condense.pk_region", ch);
  const uint64_t t0 = obs::NowNs();

  out->recondensed = true;
  ++stats_.windows;
  ++stats_.pk_regions;

  if (++pk_epoch_ == 0) {  // uint32 wrap: stale marks would alias
    std::fill(pk_f_.begin(), pk_f_.end(), 0);
    std::fill(pk_b_.begin(), pk_b_.end(), 0);
    pk_epoch_ = 1;
  }
  const uint32_t epoch = pk_epoch_;
  if (pk_f_.size() < g.id_bound()) pk_f_.resize(g.id_bound(), 0);
  if (pk_b_.size() < g.id_bound()) pk_b_.resize(g.id_bound(), 0);

  const RuleView rule = gp.rule(r);

  // Forward frontier F: components reachable from `ch` through enabled
  // rules other than `r`, restricted to labels <= Label(cmax). Labels only
  // ascend along dependency edges, so F's labels lie in [lo, hi].
  pk_seq_f_.assign(1, ch);
  pk_f_[ch] = epoch;
  for (size_t i = 0; i < pk_seq_f_.size(); ++i) {
    (void)tick.Tick();
    for (AtomId a : g.Atoms(pk_seq_f_[i])) {
      auto visit_head = [&](RuleId rid) {
        if (rid == r || !RuleEnabledIn(disabled, rid)) return;
        const uint32_t hc = g.comp_of_[gp.rule(rid).head];
        if (g.label_[hc] <= hi && pk_f_[hc] != epoch) {
          pk_f_[hc] = epoch;
          pk_seq_f_.push_back(hc);
        }
      };
      for (RuleId rid : gp.PositiveOccurrences(a)) visit_head(rid);
      for (RuleId rid : gp.NegativeOccurrences(a)) visit_head(rid);
    }
  }

  // Backward frontier B: components reaching a violating body component of
  // `r` (labels > lo) through enabled rules other than `r`, restricted to
  // labels >= lo. All seeds are labelled <= hi and labels descend along
  // reversed edges, so B's labels lie in [lo, hi] too.
  pk_seq_b_.clear();
  auto visit_body = [&](AtomId b, uint64_t floor) {
    const uint32_t cb = g.comp_of_[b];
    if (g.label_[cb] >= floor && pk_b_[cb] != epoch) {
      pk_b_[cb] = epoch;
      pk_seq_b_.push_back(cb);
    }
  };
  for (AtomId b : rule.pos) visit_body(b, lo + 1);
  for (AtomId b : rule.neg) visit_body(b, lo + 1);
  for (size_t i = 0; i < pk_seq_b_.size(); ++i) {
    (void)tick.Tick();
    for (AtomId a : g.Atoms(pk_seq_b_[i])) {
      for (RuleId rid : gp.RulesFor(a)) {
        if (rid == r || !RuleEnabledIn(disabled, rid)) continue;
        const RuleView rr = gp.rule(rid);
        for (AtomId b : rr.pos) visit_body(b, lo);
        for (AtomId b : rr.neg) visit_body(b, lo);
      }
    }
  }

  // Classify the region F ∪ B. Every new cycle passes through the new
  // edges' shared head component `ch`, so the merged SCC — if any — is
  // exactly M = F ∩ B at component granularity, every member absorbed
  // whole; membership outside M is untouched and no Tarjan run is needed.
  auto by_label = [&](uint32_t x, uint32_t y) {
    return g.label_[x] < g.label_[y];
  };
  auto in_region = [&](uint32_t x) {
    return x != kNone && (pk_f_[x] == epoch || pk_b_[x] == epoch);
  };
  pk_seq_m_.clear();
  for (uint32_t c : pk_seq_f_) {
    if (pk_b_[c] == epoch) pk_seq_m_.push_back(c);
  }
  pk_region_ = pk_seq_f_;
  for (uint32_t c : pk_seq_b_) {
    if (pk_f_[c] != epoch) pk_region_.push_back(c);
  }
  std::erase_if(pk_seq_f_, [&](uint32_t c) { return pk_b_[c] == epoch; });
  std::erase_if(pk_seq_b_, [&](uint32_t c) { return pk_f_[c] == epoch; });
  std::sort(pk_seq_f_.begin(), pk_seq_f_.end(), by_label);
  std::sort(pk_seq_b_.begin(), pk_seq_b_.end(), by_label);
  std::sort(pk_seq_m_.begin(), pk_seq_m_.end(), by_label);
  std::sort(pk_region_.begin(), pk_region_.end(), by_label);
  const uint32_t k = static_cast<uint32_t>(pk_seq_b_.size());
  const uint32_t m = static_cast<uint32_t>(pk_seq_f_.size());
  const uint32_t region = static_cast<uint32_t>(pk_region_.size());
  out->pk_region_components = region;
  stats_.pk_region_comps += region;
  const bool merge = !pk_seq_m_.empty();
  // A merge happens iff ch reaches a violating body component, i.e. ch
  // itself is backward-marked; and then |M| >= 2 (ch plus that body).
  assert(merge == (pk_b_[ch] == epoch));
  assert(!merge || pk_seq_m_.size() >= 2);
  assert(pk_seq_m_.empty() || pk_seq_m_.front() == ch);

  // Take the region's slots (its sorted labels) out of the label-order
  // list, remembering where each sat: after a component outside the
  // region, or right after the previous slot.
  pk_labels_.clear();
  pk_anchor_.clear();
  for (uint32_t c : pk_region_) {
    stats_.window_atoms += g.size_[c];
    pk_labels_.push_back(g.label_[c]);
    pk_anchor_.push_back(in_region(prev_[c]) ? kChained : prev_[c]);
  }
  for (uint32_t c : pk_region_) Unlink(c);

  // Hand the slots to [B \ M, merged M, F \ M]: B∪M take the lowest, F
  // the highest, and the |M|-1 slots in between are dropped with the
  // merged-away ids. B members only move earlier (the j-th smallest B
  // label becomes the j-th smallest region label) and F members only
  // later; in-region successors of F∪M members are again in F (forward
  // closure) and in-region predecessors of B∪M members again in B
  // (backward closure), so a component outside the region only ever feeds
  // F members, which moved later, or consumes B members, which moved
  // earlier. Relinking the slots in order restores the list.
  auto occupant = [&](uint32_t slot) {
    if (slot < k) return pk_seq_b_[slot];
    if (slot >= region - m) return pk_seq_f_[slot - (region - m)];
    return slot == k ? ch : kNone;
  };
  uint32_t after = kNone;
  for (uint32_t slot = 0; slot < region; ++slot) {
    if (pk_anchor_[slot] != kChained) after = pk_anchor_[slot];
    const uint32_t c = occupant(slot);
    if (c == kNone) continue;
    g.label_[c] = pk_labels_[slot];
    LinkAfter(after, c);
    after = c;
  }
  out->written = k + m;

  if (merge) {
    // The merged component keeps ch's id; its atoms, in ascending label
    // order of the members (each an atom-level SCC the new edges close a
    // cycle through), are appended to the atom array.
    const uint32_t begin = static_cast<uint32_t>(g.comp_atoms_.size());
    for (uint32_t oldc : pk_seq_m_) {
      (void)tick.Tick();
      for (uint32_t p = g.begin_[oldc]; p < g.begin_[oldc] + g.size_[oldc];
           ++p) {
        g.comp_atoms_.push_back(g.comp_atoms_[p]);
      }
      dead_atoms_ += g.size_[oldc];
      if (oldc != ch) {
        g.size_[oldc] = 0;
        g.begin_[oldc] = 0;
        g.internal_neg_[oldc] = 0;
        g.recursive_[oldc] = 0;
        g.free_.push_back(oldc);
      }
    }
    g.begin_[ch] = begin;
    g.size_[ch] = static_cast<uint32_t>(g.comp_atoms_.size()) - begin;
    uint32_t rank = 0;
    for (AtomId a : g.Atoms(ch)) {
      g.comp_of_[a] = ch;
      g.local_of_[a] = rank++;
    }
    ++out->written;
    ++stats_.merges;
  }
  repaired_ = true;

  // Exact flags for the merged component (the new rule `r` included —
  // its neg body atoms may be the very edge that makes the merge
  // negation-recursive). Non-merged components carry their flags verbatim,
  // valid for every pre-existing rule since membership is unchanged;
  // `InsertRule` applies the new rule's own edges to `ch` afterwards.
  if (merge) {
    g.RecomputeFlags(gp, disabled, ch);
    out->dirty.push_back(ch);
    if (dead_atoms_ > g.comp_of_.size()) CompactAtoms();
  }
  stats_.window_ns += obs::NowNs() - t0;
}

CondensationRepair DynamicCondensation::InsertRule(
    const GroundProgram& gp, const std::vector<uint8_t>* disabled, RuleId r,
    CancelCtx* cancel) {
  ++stats_.inserts;
  CondensationRepair out;
  const RuleView rule = gp.rule(r);
  AtomDependencyGraph& g = graph_;
  assert(rule.head < g.comp_of_.size());
  const uint32_t ch = g.comp_of_[rule.head];
  uint32_t cmax = ch;
  auto widen = [&](AtomId b) {
    if (g.label_[g.comp_of_[b]] > g.label_[cmax]) cmax = g.comp_of_[b];
  };
  for (AtomId b : rule.pos) widen(b);
  for (AtomId b : rule.neg) widen(b);
  if (cmax != ch) {
    // The delta's head now depends on a component labelled after it — the
    // one way a rule insertion can close a cycle or break the order. Only
    // the Pearce–Kelly affected region (forward frontier of ch ∩ backward
    // frontier of the violating bodies) can change membership or labels;
    // every component outside it stays untouched.
    NarrowedInsertRepair(gp, disabled, r, ch, cmax, &out, cancel);
  }
  // Otherwise the edges respect the order: membership and labels hold
  // everywhere. Either way the new rule may add an intra-component edge to
  // its head's component (a body atom in that component), so only that
  // component's flags can tighten.
  g.ApplyFlagRule(rule);
  out.dirty.push_back(g.comp_of_[rule.head]);
  return out;
}

CondensationRepair DynamicCondensation::RemoveRule(
    const GroundProgram& gp, const std::vector<uint8_t>* disabled, RuleId r,
    CancelCtx* cancel) {
  ++stats_.removals;
  CondensationRepair out;
  const RuleView rule = gp.rule(r);
  AtomDependencyGraph& g = graph_;
  assert(!RuleEnabledIn(disabled, r));
  const uint32_t ch = g.comp_of_[rule.head];
  bool intra = false;
  for (AtomId b : rule.pos) intra = intra || g.comp_of_[b] == ch;
  for (AtomId b : rule.neg) intra = intra || g.comp_of_[b] == ch;
  if (intra) {
    // The retracted rule carried intra-component edges: the head's
    // component may no longer be strongly connected. Removing
    // cross-component edges, by contrast, never changes membership and
    // only relaxes order constraints, which stay satisfied.
    SplitComponent(gp, disabled, ch, &out, cancel);
  }
  out.dirty.push_back(g.comp_of_[rule.head]);
  return out;
}

}  // namespace gsls
