// serve_mixed: serving mode, solver threads 1, on the wide region plus a
// dense negation-recursive block (random game(1000, 1%), whose giant SCC
// takes the warm-interior path). Two reader threads run a closed loop of
// `ServingSolver::Read` on uniformly random atoms; the submitter runs an
// open loop of move-fact toggles at a fixed rate, alternating between the
// two regions, and times each delta from when it was due until
// `published_seq()` covers it. Within a region the toggles come in pairs:
// a seeded fact is retracted and the region's next delta restores it.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/audit.h"
#include "game_setup.h"
#include "ground/grounder.h"
#include "inputs.h"
#include "serve/delta.h"
#include "serve/epoch_store.h"
#include "serve/server.h"
#include "serve/session.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gsls::Term;
using gsls::serve::ServingSolver;

constexpr int kReaders = 2;
/// Slices per measured phase, each with fresh reader threads.
constexpr int kSlices = 32;
/// Open-loop delta rate. Low enough that the writer is idle ~85% of the
/// time, so batches stay at about one delta and a slower machine does not
/// tip it into queueing (at 3000/s the p90 swung 5x run to run).
constexpr double kDeltasPerSecond = 1000;
/// Every this many reads, a reader yields its CPU.
constexpr uint64_t kYieldEvery = 64;
/// Every this many reads, a reader keeps (seq, atom, answer).
constexpr uint64_t kSampleEvery = 1024;
/// Distinct delta prefixes the sample replay re-solves from scratch.
constexpr size_t kReplayPrefixes = 64;
/// How long the submitter waits for its last deltas to publish.
constexpr uint64_t kDrainTimeoutNs = 20'000'000'000ULL;

struct ReadSample {
  uint64_t seq;
  uint32_t atom;
  gsls::serve::SnapshotAnswer answer;
};

struct ReaderResult {
  NsHistogram hist;
  std::vector<ReadSample> samples;
  OpTally tally;
};

/// One submitted delta: a move fact (index into `all_edges`) asserted or
/// retracted. Index i holds sequence number i + 1.
struct Submitted {
  uint32_t edge;
  bool assert;
};

struct Shared {
  ServingSolver* server = nullptr;
  std::vector<Edge> all_edges;
  std::vector<const Term*> facts;  ///< per edge, live store
  size_t wide = 0;                 ///< edges [0, wide) are the wide region
  /// Per region (0 wide, 1 dense): the edge retracted and not yet
  /// restored, or -1.
  int64_t retracted[2] = {-1, -1};
  std::vector<const Term*> atoms;  ///< every registered atom, live store
  std::vector<Submitted> log;
  gsls::Rng pick{0};
};

struct Phase {
  std::vector<ReaderResult> readers;
  std::vector<double> visible_ns;
  std::vector<double> late_ns;
  std::vector<double> submit_ns;
  double seconds = 0;
  uint64_t reads = 0;
  uint64_t first_seq = 0;  ///< log range of this phase: [first, last]
  uint64_t last_seq = 0;
  OpTally tally;
  std::vector<SliceMetrics> slices;
};

void ReaderLoop(Shared& sh, Tracer& tracer, const std::atomic<bool>& stop,
                uint64_t seed, ReaderResult* out) {
  gsls::serve::EpochStore::ReaderHandle h = sh.server->RegisterReader();
  if (!h.valid()) {
    out->tally.Record(false);
    return;
  }
  gsls::Rng rng(seed);
  uint64_t n = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const uint32_t atom = static_cast<uint32_t>(rng.Uniform(sh.atoms.size()));
    uint64_t seq = 0;
    gsls::serve::SnapshotAnswer a;
    const uint64_t t0 = NowNs();
    {
      Span sp(tracer, Site::kRead);  // a root: the read is the operation
      a = sh.server->Read(h, sh.atoms[atom], nullptr, &seq);
    }
    out->hist.Record(NowNs() - t0);
    out->tally.Record(a.registered);
    if (++n % kSampleEvery == 0) out->samples.push_back({seq, atom, a});
    // Readers and the submitter keep every CPU busy; yielding now and
    // then (outside the timed read) lets a woken writer in within ~20 µs
    // instead of a scheduler tick.
    if (n % kYieldEvery == 0) std::this_thread::yield();
  }
}

/// One slice: starts the readers, runs the open-loop submitter for
/// `seconds`, waits for every submitted delta to publish, joins the
/// readers. Results accumulate into `ph`, plus the slice's own values.
void RunSlice(Shared& sh, Tracer& tracer, double seconds, uint64_t seed,
              Phase* ph) {
  std::atomic<bool> stop{false};
  std::vector<ReaderResult> readers(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(ReaderLoop, std::ref(sh), std::ref(tracer),
                         std::cref(stop), seed + r, &readers[r]);
  }
  const size_t first_visible = ph->visible_ns.size();

  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  const OpenLoopSchedule sched(start, kDeltasPerSecond);
  struct Pending {
    uint64_t seq;
    uint64_t due;
  };
  std::deque<Pending> pending;
  uint64_t k = 0;
  uint64_t stop_reads_at = 0;
  uint64_t polled = 0;
  // The submitter spins, yielding its core whenever another thread wants
  // it: a sleep would add a wake-up to every due time and stamp. It polls
  // publication about once a microsecond: often enough to stamp
  // visibility closely, rarely enough to leave the publish lock alone.
  for (;; std::this_thread::yield()) {
    const uint64_t now = NowNs();
    if (!pending.empty() && now - polled >= 1000) {
      polled = now;
      const uint64_t pub = sh.server->published_seq();
      while (!pending.empty() && pending.front().seq <= pub) {
        ph->visible_ns.push_back(static_cast<double>(
            OpenLoopSchedule::LatencyNs(pending.front().due, now)));
        pending.pop_front();
      }
    }
    const uint64_t due = sched.DueNs(k);
    if (due >= end) {
      if (stop_reads_at == 0) {
        stop_reads_at = now;
        stop.store(true);
      }
      if (pending.empty()) break;
      if (now - stop_reads_at > kDrainTimeoutNs) {
        ph->tally.FailLater(pending.size());
        break;
      }
      continue;
    }
    if (now < due) continue;

    // The regions alternate. In a region, a seeded fact is retracted and
    // the next delta restores it, so the program never drifts more than
    // two facts from the base: every run and seed measures the same
    // regime. (Uniform toggles that let the dense block drift lead the
    // warm-interior path, on some seeds, into a model the solver audit
    // rejects — seed 423 after ~9500 dense toggles.)
    const size_t region = k % 2;
    const bool assert = sh.retracted[region] >= 0;
    uint32_t e;
    if (assert) {
      e = static_cast<uint32_t>(sh.retracted[region]);
      sh.retracted[region] = -1;
    } else {
      const size_t lo = region == 0 ? 0 : sh.wide;
      const size_t hi = region == 0 ? sh.wide : sh.all_edges.size();
      e = static_cast<uint32_t>(lo + sh.pick.Uniform(hi - lo));
      sh.retracted[region] = e;
    }
    ph->late_ns.push_back(
        static_cast<double>(OpenLoopSchedule::LatenessNs(due, now)));
    uint64_t seq = 0;
    const uint64_t t0 = NowNs();
    {
      Span sp(tracer, Site::kSubmit);
      seq = assert ? sh.server->Assert(sh.facts[e])
                   : sh.server->Retract(sh.facts[e]);
    }
    ph->submit_ns.push_back(static_cast<double>(NowNs() - t0));
    sh.log.push_back(Submitted{e, assert});
    ph->tally.Record(seq == sh.log.size());
    pending.push_back(Pending{seq, due});
    ++k;
  }
  for (std::thread& t : threads) t.join();
  ph->seconds += static_cast<double>(stop_reads_at - start) / 1e9;

  for (int r = 0; r < kReaders; ++r) {
    ReaderResult& in = readers[r];
    ReaderResult& all = ph->readers[r];
    all.hist.Merge(in.hist);
    all.samples.insert(all.samples.end(), in.samples.begin(),
                       in.samples.end());
    all.tally.Merge(in.tally);
  }
  const size_t visible = ph->visible_ns.size();
  ph->slices.push_back(SliceMetrics{
      RangePercentile(ph->visible_ns, first_visible, visible, 50) / 1e3,
      RangePercentile(ph->visible_ns, first_visible, visible, 90) / 1e3});
}

/// Runs `kSlices` slices of `seconds / kSlices` each. The reader threads
/// are new in every slice: where the scheduler places them (and how they
/// then share the machine with the writer) sets a per-thread speed that
/// otherwise holds for a whole run, so fresh threads turn that from
/// run-to-run noise into an average within the run.
Phase RunPhase(Shared& sh, Tracer& tracer, double seconds, uint64_t seed) {
  Phase ph;
  ph.readers.resize(kReaders);
  ph.first_seq = sh.log.size() + 1;
  for (int slice = 0; slice < kSlices; ++slice) {
    RunSlice(sh, tracer, seconds / kSlices, seed * 1000 + slice * kReaders,
             &ph);
  }
  ph.last_seq = sh.log.size();
  for (const ReaderResult& r : ph.readers) {
    ph.reads += r.hist.count();
    ph.tally.Merge(r.tally);
  }
  return ph;
}

/// An independent solver over a fresh parse and grounding of the same
/// text, with the live run's facts and atoms mapped into its term store.
struct Replica {
  gsls::TermStore store;
  std::unique_ptr<gsls::IncrementalSolver> solver;
  std::vector<const Term*> facts;  ///< per edge
  bool ok = false;

  Replica(const std::string& text, const std::vector<Edge>& edges) {
    gsls::Result<gsls::Program> prog = gsls::ParseProgram(store, text);
    if (!prog.ok()) return;
    gsls::Result<gsls::GroundProgram> gp = gsls::GroundRelevant(*prog, {});
    if (!gp.ok()) return;
    gsls::SolverOptions opts;
    opts.compute_levels = true;
    solver = std::make_unique<gsls::IncrementalSolver>(std::move(gp.value()),
                                                       opts);
    std::vector<std::string> src;
    for (const Edge& e : edges) src.push_back(MoveFact(e));
    ok = true;
    facts = ParseTerms(store, src, &ok);
  }

  void Apply(const Submitted& d) {
    gsls::serve::DeltaOp op;
    op.kind = d.assert ? gsls::serve::DeltaOp::Kind::kAssertFact
                       : gsls::serve::DeltaOp::Kind::kRetractFact;
    op.fact = facts[d.edge];
    gsls::serve::ApplyDelta(*solver, op);
  }
};

/// Replays a sample of reads against from-scratch solves of the program
/// state their snapshot claimed (base program + deltas [1, seq]). Returns
/// the number of mismatched samples; `*checked` counts compared ones.
uint64_t ReplaySamples(const GameProgram& program, const Shared& sh,
                       const gsls::TermStore& live, std::vector<ReadSample> s,
                       uint64_t* checked) {
  Replica rep(program.text, sh.all_edges);
  if (!rep.ok) return 1;
  std::sort(s.begin(), s.end(), [](const ReadSample& a, const ReadSample& b) {
    return a.seq < b.seq;
  });
  std::vector<uint64_t> seqs;
  for (const ReadSample& r : s) {
    if (seqs.empty() || seqs.back() != r.seq) seqs.push_back(r.seq);
  }
  std::vector<uint64_t> chosen;
  for (size_t i = 0; i < kReplayPrefixes && !seqs.empty(); ++i) {
    const uint64_t q = seqs[i * seqs.size() / kReplayPrefixes];
    if (chosen.empty() || chosen.back() != q) chosen.push_back(q);
  }
  uint64_t bad = 0;
  uint64_t applied = 0;
  size_t at = 0;
  for (uint64_t seq : chosen) {
    while (applied < seq) rep.Apply(sh.log[applied++]);
    const gsls::WfsModel fresh = rep.solver->SolveFresh();
    while (at < s.size() && s[at].seq < seq) ++at;
    for (; at < s.size() && s[at].seq == seq; ++at) {
      const ReadSample& r = s[at];
      gsls::Result<const Term*> t =
          gsls::ParseTerm(rep.store, live.ToString(sh.atoms[r.atom]));
      std::optional<gsls::AtomId> id =
          t.ok() ? rep.solver->program().FindAtom(*t) : std::nullopt;
      ++*checked;
      if (!id.has_value() || r.answer.value != fresh.Value(*id) ||
          r.answer.true_stage != fresh.true_stage[*id] ||
          r.answer.false_stage != fresh.false_stage[*id]) {
        ++bad;
      }
    }
  }
  return bad;
}

/// The writer's public sequence replayed on a replica, one span per call:
/// `ApplyDelta`, `Model`, `TakeResolveLog`, `SnapshotBuilder::Build`,
/// `EpochStore::Publish`, `DrainReclaimable` + `Recycle`, in batches of
/// the live writer's mean batch size.
struct WriterReplay {
  uint64_t batches = 0;
  gsls::serve::SnapshotBuilder::Stats builder;
};

WriterReplay ReplayWriter(const GameProgram& program, const Shared& sh,
                          const Phase& ph, double batch, Tracer& tracer) {
  WriterReplay out;
  Replica rep(program.text, sh.all_edges);
  if (!rep.ok) return out;
  rep.solver->EnableResolveLog();
  for (uint64_t i = 0; i + 1 < ph.first_seq; ++i) rep.Apply(sh.log[i]);
  rep.solver->Model();
  auto epochs = std::make_unique<gsls::serve::EpochStore>();
  gsls::serve::SnapshotBuilder builder;
  uint64_t epoch = 1;
  epochs->Publish(builder.Build(*rep.solver, rep.solver->TakeResolveLog(),
                                epoch, ph.first_seq - 1));
  const gsls::serve::SnapshotBuilder::Stats before = builder.stats();
  const uint64_t size = std::max<uint64_t>(1, std::llround(batch));
  for (uint64_t next = ph.first_seq; next <= ph.last_seq;) {
    const uint64_t stop = std::min(ph.last_seq + 1, next + size);
    Span op(tracer, Site::kOp);
    for (; next < stop; ++next) {
      Span sp(tracer, Site::kReplicaApply);
      rep.Apply(sh.log[next - 1]);
    }
    {
      Span sp(tracer, Site::kReplicaModel);
      rep.solver->Model();
    }
    gsls::IncrementalSolver::ResolveLog log;
    {
      Span sp(tracer, Site::kTakeLog);
      log = rep.solver->TakeResolveLog();
    }
    std::shared_ptr<const gsls::serve::Snapshot> snap;
    {
      Span sp(tracer, Site::kBuild);
      snap = builder.Build(*rep.solver, std::move(log), ++epoch, next - 1);
    }
    {
      Span sp(tracer, Site::kPublish);
      epochs->Publish(std::move(snap));
    }
    Span sp(tracer, Site::kReclaim);
    for (auto& dead : epochs->DrainReclaimable()) {
      builder.Recycle(std::move(dead));
    }
    ++out.batches;
  }
  out.builder = builder.stats();
  out.builder.pages_cloned -= before.pages_cloned;
  out.builder.pages_shared -= before.pages_shared;
  return out;
}

struct LiveCounters {
  ServingSolver::Stats serve;
  SolverCounters solver;
};

/// Quiesced read of the live writer's counters.
LiveCounters ReadCounters(ServingSolver& server) {
  server.Pause();
  LiveCounters c{server.stats(),
                 {server.solver().stats(), server.solver().diagnostics()}};
  server.Resume();
  return c;
}

}  // namespace

RunOutcome RunServeMixed(const RunConfig& cfg, Report* report) {
  RunOutcome out;
  gsls::SessionOptions opts;
  opts.serving = true;
  opts.solver.num_threads = 1;
  opts.compute_levels = true;

  std::vector<double> setups;
  SetupLayers layers;
  GameProgram program;
  OpenedGame g = SetUp(&WideAndDenseProgram, cfg.seed, opts, cfg.trace,
                       &program, &setups, &layers);
  if (!g.ok) {
    out.tally.Record(false);
    return out;
  }

  Shared sh;
  sh.server = g.session->server();
  sh.all_edges = program.wide_edges;
  sh.wide = sh.all_edges.size();
  sh.all_edges.insert(sh.all_edges.end(), program.dense_edges.begin(),
                      program.dense_edges.end());
  std::vector<std::string> facts;
  for (const Edge& e : sh.all_edges) facts.push_back(MoveFact(e));
  bool parsed = true;
  sh.facts = ParseTerms(*g.store, facts, &parsed);
  sh.atoms = g.session->SnapshotNow()->index().terms;
  sh.pick = gsls::Rng(cfg.seed ^ 0x5e1ec7ULL);
  if (!parsed) {
    out.tally.Record(false);
    return out;
  }

  Tracer untraced(false);
  Phase ph = RunPhase(sh, untraced, cfg.seconds, cfg.seed);
  // Before any check: the replicas and fresh solves below are the
  // checker's memory, not the server's.
  report->Set("peak_rss_mb", PeakRssMb());
  out.tally.Merge(ph.tally);
  NsHistogram reads;
  std::vector<ReadSample> samples;
  for (const ReaderResult& r : ph.readers) {
    reads.Merge(r.hist);
    samples.insert(samples.end(), r.samples.begin(), r.samples.end());
  }

  std::printf("workload serve_mixed: %zu atoms, %zu edges, %.0f deltas/s, "
              "seed %llu\n",
              sh.atoms.size(), sh.all_edges.size(), kDeltasPerSecond,
              static_cast<unsigned long long>(cfg.seed));
  report->PrintLatency("read_ns", "ns", 1.0, reads);
  const double reads_per_s = static_cast<double>(ph.reads) / ph.seconds;
  report->PrintValue("reads_per_s", reads_per_s, "reads/s", ph.reads);
  report->PrintLatency("visible_us", "us", 1e-3, ph.visible_ns);
  report->PrintLatency("gen_late_us", "us", 1e-3, ph.late_ns);
  report->PrintLatency("submit_us", "us", 1e-3, ph.submit_ns);
  report->Set("setup_s", Median(setups));
  report->SetFromSlices(ph.slices);

  if (cfg.trace) {
    ReportSetupLayers(layers, report);
    report->Set("serve.gen_late_us_p99", Percentile(&ph.late_ns, 99) / 1e3);
    Tracer tracer(true);
    const LiveCounters before = ReadCounters(*sh.server);
    Phase tp = RunPhase(sh, tracer, cfg.seconds, cfg.seed + 1);
    out.tally.Merge(tp.tally);
    for (const ReaderResult& r : tp.readers) {
      samples.insert(samples.end(), r.samples.begin(), r.samples.end());
    }
    const LiveCounters after = ReadCounters(*sh.server);
    const uint64_t batches = after.serve.batches - before.serve.batches;
    const uint64_t deltas =
        after.serve.deltas_applied - before.serve.deltas_applied;
    const WriterReplay wr =
        ReplayWriter(program, sh, tp, Ratio(deltas, batches), tracer);
    const Ledger ledger = tracer.Collect();

    report->Set("serve.model_us", ledger.MeanUs(Site::kReplicaModel));
    report->Set("serve.build_us", ledger.MeanUs(Site::kBuild));
    report->Set("serve.deltas_per_batch", Ratio(deltas, batches));
    report->Set("serve.pages_cloned_per_publish",
                Ratio(wr.builder.pages_cloned, wr.batches));
    report->Set("serve.pages_shared_ratio",
                Ratio(wr.builder.pages_shared,
                      wr.builder.pages_shared + wr.builder.pages_cloned));
    report->Set("serve.submit_us", ledger.MeanUs(Site::kSubmit));
    report->Set("serve.read_ns", ledger.MeanUs(Site::kRead) * 1e3);
    report->Set("serve.reclaimed",
                static_cast<double>(after.serve.reclaimed_snapshots -
                                    before.serve.reclaimed_snapshots));
    report->Set("serve.recycled_pages",
                static_cast<double>(after.serve.recycled_pages -
                                    before.serve.recycled_pages));
    report->Set("solver.apply_us", ledger.MeanUs(Site::kReplicaApply));
    ReportSolverCounters(before.solver, after.solver, deltas, report);
    const double untraced_ns = static_cast<double>(reads.sum_ns()) /
                               static_cast<double>(reads.count());
    NsHistogram traced_reads;
    for (const ReaderResult& r : tp.readers) traced_reads.Merge(r.hist);
    const double traced_ns = static_cast<double>(traced_reads.sum_ns()) /
                             static_cast<double>(traced_reads.count());
    report->PrintLedger("serve_mixed", ledger, traced_ns / untraced_ns);
  }

  // Checks, outside every timed path: the serving audit on the quiesced
  // writer, then the read sample against fresh solves.
  const gsls::check::AuditReport audit = gsls::check::AuditServing(*sh.server);
  if (!audit.ok()) {
    std::fprintf(stderr, "audit: %s\n", audit.ToString().c_str());
    out.tally.FailLater(audit.failures.size());
  }
  uint64_t checked = 0;
  const uint64_t bad =
      ReplaySamples(program, sh, *g.store, std::move(samples), &checked);
  out.tally.FailLater(bad);
  std::printf("  replayed %llu sampled reads against fresh solves: %llu "
              "mismatched\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(bad));
  return out;
}

}  // namespace perfbench
