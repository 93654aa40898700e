#include "layer_trace.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

namespace perfbench {

namespace {

struct SiteInfo {
  const char* name;
  Layer layer;
};

constexpr std::array<SiteInfo, kSiteCount> kSites = {{
    {"op", Layer::kBench},
    {"lang.ParseProgram", Layer::kLang},
    {"lang.ParseTerm", Layer::kLang},
    {"ground.GroundRelevant", Layer::kGround},
    {"solver.Adopt", Layer::kSolver},
    {"solver.FirstModel", Layer::kSolver},
    {"solver.Query", Layer::kSolver},
    {"solver.ApplyFact", Layer::kSolver},
    {"solver.ApplyRule", Layer::kSolver},
    {"serve.SnapshotNow", Layer::kServe},
    {"serve.Read", Layer::kServe},
    {"serve.Submit", Layer::kServe},
    {"solver.ApplyDelta", Layer::kSolver},
    {"solver.Model", Layer::kSolver},
    {"solver.TakeResolveLog", Layer::kSolver},
    {"serve.Build", Layer::kServe},
    {"serve.Publish", Layer::kServe},
    {"serve.Reclaim", Layer::kServe},
}};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "bench", "lang", "ground", "analysis", "solver", "serve"};

std::atomic<uint64_t> next_tracer_id{1};

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), id_(next_tracer_id.fetch_add(1)) {}

const char* LayerName(Layer layer) {
  return kLayerNames[static_cast<size_t>(layer)];
}
const char* SiteName(Site site) {
  return kSites[static_cast<size_t>(site)].name;
}
Layer SiteLayer(Site site) { return kSites[static_cast<size_t>(site)].layer; }

double Ledger::MeanUs(Site s) const {
  const uint64_t n = Calls(s);
  return n == 0 ? 0.0 : static_cast<double>(InclusiveNs(s)) / 1e3 /
                            static_cast<double>(n);
}

double Ledger::Share(Layer l) const {
  return root_ns == 0 ? 0.0 : static_cast<double>(SelfNs(l)) /
                                  static_cast<double>(root_ns);
}

void Ledger::Merge(const Ledger& o) {
  for (size_t i = 0; i < kSiteCount; ++i) {
    calls[i] += o.calls[i];
    inclusive_ns[i] += o.inclusive_ns[i];
  }
  for (size_t i = 0; i < kLayerCount; ++i) self_ns[i] += o.self_ns[i];
  root_ns += o.root_ns;
  root_calls += o.root_calls;
}

Tracer::ThreadState* Tracer::Local() {
  // One tracer is live per phase; the cache re-registers when the thread
  // meets a different tracer.
  thread_local uint64_t owner = 0;
  thread_local ThreadState* state = nullptr;
  if (owner != id_) {
    std::lock_guard<std::mutex> l(mu_);
    threads_.push_back(std::make_unique<ThreadState>());
    state = threads_.back().get();
    owner = id_;
  }
  return state;
}

void Tracer::Open(Site site) {
  ThreadState* t = Local();
  if (t->depth == kMaxDepth) std::abort();  // unbalanced spans: a bug
  t->stack[t->depth++] = Frame{site, NowNs(), 0};
}

void Tracer::Close() {
  const uint64_t end = NowNs();
  ThreadState* t = Local();
  const Frame f = t->stack[--t->depth];
  const uint64_t dur = end - f.start_ns;
  const uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  const size_t s = static_cast<size_t>(f.site);
  ++t->ledger.calls[s];
  t->ledger.inclusive_ns[s] += dur;
  t->ledger.self_ns[static_cast<size_t>(SiteLayer(f.site))] += self;
  if (t->depth > 0) {
    t->stack[t->depth - 1].child_ns += dur;
  } else {
    t->ledger.root_ns += dur;
    ++t->ledger.root_calls;
  }
}

void Tracer::Carve(Layer to, uint64_t ns) {
  if (!enabled_ || ns == 0) return;
  ThreadState* t = Local();
  if (t->depth == 0) return;
  Frame& top = t->stack[t->depth - 1];
  // A side measurement can exceed the span it is carved from; never move
  // more than the span's own time so far.
  const uint64_t elapsed = NowNs() - top.start_ns;
  ns = std::min(ns, elapsed > top.child_ns ? elapsed - top.child_ns : 0);
  top.child_ns += ns;
  t->ledger.self_ns[static_cast<size_t>(to)] += ns;
}

Ledger Tracer::Collect() const {
  std::lock_guard<std::mutex> l(mu_);
  Ledger out;
  for (const auto& t : threads_) out.Merge(t->ledger);
  return out;
}

}  // namespace perfbench
