#include "serve/snapshot.h"

#include <algorithm>
#include <utility>

#include "ground/ground_program.h"
#include "solver/stages.h"
#include "solver/truth_tape.h"

namespace gsls::serve {

std::shared_ptr<Page> SnapshotBuilder::AllocPage() {
  if (!pool_.empty()) {
    std::shared_ptr<Page> p = std::move(pool_.back());
    pool_.pop_back();
    ++stats_.pool_hits;
    return p;
  }
  return std::make_shared<Page>();
}

std::shared_ptr<const Snapshot> SnapshotBuilder::Build(
    const IncrementalSolver& solver, IncrementalSolver::ResolveLog log,
    uint64_t epoch, uint64_t seq) {
  const solver::TruthTape& tape = solver.tape();
  const solver::StageTape& stape = solver.stage_tape();
  const bool levels = stape.size() == tape.size() && tape.size() > 0;
  const size_t atom_count = tape.size();
  const size_t npages = (atom_count + kPageAtoms - 1) / kPageAtoms;
  const size_t prev_atoms = prev_ != nullptr ? prev_->atom_count_ : 0;
  const bool from_scratch = prev_ == nullptr || log.all_atoms ||
                            prev_->has_levels_ != levels;

  // A page must be re-materialized when an atom on it was re-solved, when
  // its coverage changed (growth moves the partial tail page), or when
  // there is no previous build to share with.
  std::vector<uint8_t> dirty(npages, from_scratch ? 1 : 0);
  if (!from_scratch) {
    for (AtomId a : log.atoms) {
      if (a < atom_count) dirty[a / kPageAtoms] = 1;
    }
    if (atom_count != prev_atoms) {
      // Tail pages beyond the old count are new; the old partial tail
      // page (if any) changed size.
      const size_t first_new = prev_atoms / kPageAtoms;
      for (size_t p = first_new; p < npages; ++p) dirty[p] = 1;
    }
  }

  auto snap = std::make_shared<Snapshot>();
  snap->epoch_ = epoch;
  snap->seq_ = seq;
  snap->atom_count_ = atom_count;
  snap->has_levels_ = levels;
  snap->pages_.resize(npages);

  for (size_t p = 0; p < npages; ++p) {
    if (dirty[p] == 0) {
      snap->pages_[p] = prev_->pages_[p];
      ++stats_.pages_shared;
      continue;
    }
    const AtomId base = static_cast<AtomId>(p * kPageAtoms);
    const uint32_t span = static_cast<uint32_t>(
        std::min<size_t>(kPageAtoms, atom_count - base));
    std::shared_ptr<Page> page = AllocPage();
    page->values.resize(span);
    for (uint32_t i = 0; i < span; ++i) {
      page->values[i] = static_cast<uint8_t>(tape.Value(base + i));
    }
    if (levels) {
      page->true_stage.assign(stape.true_stage.begin() + base,
                              stape.true_stage.begin() + base + span);
      page->false_stage.assign(stape.false_stage.begin() + base,
                               stape.false_stage.begin() + base + span);
    } else {
      page->true_stage.clear();
      page->false_stage.clear();
    }
    snap->pages_[p] = std::move(page);
    ++stats_.pages_cloned;
  }

  // Copy-on-intern: the index is rebuilt only when the atom universe
  // moved, so steady-state publishes share one immutable map.
  if (index_ == nullptr || index_->terms.size() != atom_count) {
    const GroundProgram& gp = solver.program();
    auto index = std::make_shared<AtomIndex>();
    index->terms.resize(atom_count);
    index->ids.reserve(atom_count);
    for (AtomId a = 0; a < atom_count; ++a) {
      const Term* t = gp.AtomTerm(a);
      index->terms[a] = t;
      index->ids.emplace(t, a);
    }
    index_ = std::move(index);
    ++stats_.index_rebuilds;
  }
  snap->index_ = index_;
  // Only a grounding that hit its depth cap has a cone; it is rebuilt per
  // publish because rule deltas move it.
  snap->truncation_ =
      TruncationCone::Build(solver.program(), &solver.disabled_mask());

  prev_ = snap;
  return snap;
}

void SnapshotBuilder::Recycle(std::shared_ptr<const Snapshot> retired) {
  if (retired == nullptr || retired.use_count() != 1) {
    return;  // still reachable somewhere — never reuse its pages
  }
  std::vector<std::shared_ptr<Page>> pages = retired->pages_;
  retired.reset();  // the snapshot dies; its own page refs are released
  for (std::shared_ptr<Page>& p : pages) {
    if (p.use_count() == 1 && pool_.size() < kMaxPoolPages) {
      pool_.push_back(std::move(p));
      ++stats_.pages_recycled;
    }
  }
}

}  // namespace gsls::serve
