#ifndef PERFBENCH_LAYER_TRACE_H_
#define PERFBENCH_LAYER_TRACE_H_

// Benchmark-side spans around the calls into each library layer. A span
// is opened with `Span` (RAII) at a call site; sites map to layers, and
// the tracer keeps, per thread, a stack of open spans so every span's
// self time (its duration minus the part its child spans cover) is added
// to its layer as it closes. Root spans are whole benchmark operations:
// their self time is the benchmark's own glue, which is what the ledger
// reports as unaccounted. Nothing is allocated per span, so the hot read
// loops can stay traced.
//
// The library's own tracing and telemetry stay detached: every span here
// wraps a public call from outside.

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "stats.h"

namespace perfbench {

enum class Layer : uint8_t {
  kBench,  ///< benchmark glue inside an operation (unaccounted)
  kLang,
  kGround,
  kAnalysis,
  kSolver,
  kServe,
};
inline constexpr size_t kLayerCount = 6;
const char* LayerName(Layer layer);

/// Call sites the benchmark times. Each belongs to one layer.
enum class Site : uint8_t {
  kOp,             ///< root: one benchmark operation
  kParseProgram,   ///< lang: ParseProgram
  kParseTerm,      ///< lang: ParseTerm
  kGroundRelevant, ///< ground: GroundRelevant
  kAdopt,          ///< solver: IncrementalSolver construction + Adopt
  kFirstModel,     ///< solver: the first IncrementalSolver::Model
  kQuery,          ///< solver: Session::Query (direct mode)
  kApplyFact,      ///< solver: Session::Assert/Retract of a fact
  kApplyRule,      ///< solver: Session::Assert/Retract of a clause
  kSnapshotNow,    ///< serve: Session::SnapshotNow
  kRead,           ///< serve: ServingSolver::Read
  kSubmit,         ///< serve: ServingSolver::Assert/Retract (back-pressure)
  kReplicaApply,   ///< solver: serve::ApplyDelta on the writer replica
  kReplicaModel,   ///< solver: IncrementalSolver::Model on the replica
  kTakeLog,        ///< solver: IncrementalSolver::TakeResolveLog
  kBuild,          ///< serve: SnapshotBuilder::Build
  kPublish,        ///< serve: EpochStore::Publish
  kReclaim,        ///< serve: DrainReclaimable + SnapshotBuilder::Recycle
};
inline constexpr size_t kSiteCount = 18;
const char* SiteName(Site site);
Layer SiteLayer(Site site);

/// Per-site call counts and inclusive time, plus per-layer self time.
struct Ledger {
  std::array<uint64_t, kSiteCount> calls{};
  std::array<uint64_t, kSiteCount> inclusive_ns{};
  std::array<uint64_t, kLayerCount> self_ns{};
  uint64_t root_ns = 0;     ///< summed duration of root spans (end to end)
  uint64_t root_calls = 0;  ///< root spans: the operations measured

  uint64_t Calls(Site s) const { return calls[static_cast<size_t>(s)]; }
  uint64_t InclusiveNs(Site s) const {
    return inclusive_ns[static_cast<size_t>(s)];
  }
  /// Mean inclusive microseconds per call of `s` (0 without calls).
  double MeanUs(Site s) const;
  uint64_t SelfNs(Layer l) const { return self_ns[static_cast<size_t>(l)]; }
  /// Self time of `l` as a share of end-to-end time.
  double Share(Layer l) const;
  /// End-to-end time not covered by any layer's span.
  double UnaccountedShare() const { return Share(Layer::kBench); }
  void Merge(const Ledger& o);
};

class Tracer {
 public:
  static constexpr size_t kMaxDepth = 16;

  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Moves `ns` of the innermost open span's self time to layer `to`:
  /// work a public call did inside another layer that only a library
  /// counter (or a side measurement) can split out.
  void Carve(Layer to, uint64_t ns);

  /// Merged ledger of every thread that opened a span. Call once the
  /// traced threads have stopped.
  Ledger Collect() const;

 private:
  friend class Span;

  struct Frame {
    Site site;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  struct ThreadState {
    std::array<Frame, kMaxDepth> stack{};
    size_t depth = 0;
    Ledger ledger;
  };

  ThreadState* Local();
  void Open(Site site);
  void Close();

  const bool enabled_;
  const uint64_t id_;  ///< process-unique; keys the per-thread cache
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// RAII span; free when the tracer is disabled (one branch).
class Span {
 public:
  Span(Tracer& tracer, Site site)
      : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Open(site);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_TRACE_H_
