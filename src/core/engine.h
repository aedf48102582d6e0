// DiagnosisEngine: batched, parallel execution of validated SessionSpecs.
//
// Each run owns its RNG, its SoC and its scheme instance, so runs are
// embarrassingly parallel: the engine fans a batch out across a persistent
// worker pool and still produces bit-identical per-run Reports to serial
// execution — a Report depends only on its spec, never on scheduling.
//
// The pool is created once at engine construction and fed through a work
// queue; run_batch()/run_sweep()/run_stream() never spawn or join threads,
// so steady-state batch traffic does zero thread churn.  Each worker slot
// keeps an ExecutionScratch persisted across batches (DiagnosisLog
// capacity feedback), trimming per-run allocation without ever touching
// results — scratch only pre-sizes buffers.
//
// Concurrency contract: the only per-run callback is run_stream()'s sink,
// and it fires on the submitting thread, in submission order, after the
// chunk it belongs to has finished — never inside a dispatch.  Each
// engine, pooled or not, holds one dispatch lock for one chunk at a time,
// so a concurrent call from another thread blocks until the chunk ends
// (want overlap? use one engine per submitting thread — engines are
// cheap).  A scheme that calls back into an engine from inside a running
// job runs that call serially on the job's thread instead of deadlocking.
//
// SweepSpec builds such batches declaratively: the cartesian product of
// SoC configurations x schemes x defect rates x seeds over a shared base
// spec, validated axis by axis through the same Expected pipeline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/errors.h"
#include "core/expected.h"
#include "core/report.h"
#include "core/spec.h"

namespace fastdiag::core {

/// Cartesian sweep over a base spec.  An empty axis keeps the base value;
/// a non-empty axis replaces it with each listed value in turn.  Expansion
/// order is socs (outermost), then schemes, then defect rates, then seeds
/// (innermost) — AggregateReport::runs follows this order.
struct SweepSpec {
  SessionSpec::Builder base;

  std::vector<std::vector<sram::SramConfig>> socs;
  std::vector<std::string> schemes;
  std::vector<double> defect_rates;
  std::vector<std::uint64_t> seeds;

  /// Number of specs expand() yields: the product of every non-empty
  /// axis's size (empty axes count as 1).
  [[nodiscard]] std::size_t cardinality() const;

  /// Expands the product into validated specs.  Fails with the first
  /// per-spec ConfigError, or with empty_sweep when an axis is explicitly
  /// empty of usable values (e.g. socs contains an empty config list).
  [[nodiscard]] Expected<std::vector<SessionSpec>, ConfigError> expand(
      const SchemeRegistry& registry = SchemeRegistry::global()) const;

  /// The spec at @p index of the expansion order, built without
  /// materializing the rest of the product — the random access streaming
  /// sweeps and checkpoint/resume are built on.  expand()[i] and
  /// spec_at(i) are identical by construction (expand is implemented on
  /// top of this).
  [[nodiscard]] Expected<SessionSpec, ConfigError> spec_at(
      std::size_t index,
      const SchemeRegistry& registry = SchemeRegistry::global()) const;
};

/// A generator over a SweepSpec's expansion: yields spec i, i+1, ... without
/// ever materializing the product, so a 100k-run sweep costs O(1) memory on
/// the spec side.  seek() gives checkpoint/resume its spec-cursor — the
/// completion prefix of a streaming sweep maps 1:1 onto a cursor position.
///
/// create() validates every axis value once (each combined with the first
/// value of the other axes; spec validation is per-field, so that covers
/// the whole product), which is what lets next() hand out specs without a
/// per-call error channel.
class SweepCursor {
 public:
  [[nodiscard]] static Expected<SweepCursor, ConfigError> create(
      SweepSpec sweep,
      const SchemeRegistry& registry = SchemeRegistry::global());

  [[nodiscard]] std::size_t cardinality() const { return cardinality_; }

  /// Index of the spec the next next() call yields.
  [[nodiscard]] std::size_t position() const { return position_; }

  /// Moves the cursor; @p position may equal cardinality() (exhausted).
  void seek(std::size_t position);

  /// The spec at position(), advancing past it; nullopt when exhausted.
  [[nodiscard]] std::optional<SessionSpec> next();

  /// Random access without moving the cursor.
  [[nodiscard]] SessionSpec spec_at(std::size_t index) const;

 private:
  SweepCursor(SweepSpec sweep, const SchemeRegistry* registry,
              std::size_t cardinality);

  SweepSpec sweep_;
  const SchemeRegistry* registry_;
  std::size_t cardinality_ = 0;
  std::size_t position_ = 0;
};

struct EngineOptions {
  /// Worker threads for run_batch(); 0 picks the hardware concurrency
  /// (queried once per process and cached).  An engine with workers == 1
  /// owns no pool threads at all.
  std::size_t workers = 1;

  /// Registry schemes are resolved from; nullptr means the global one.
  /// Must outlive the engine.
  const SchemeRegistry* registry = nullptr;
};

/// Per-worker scratch persisted across run_batch() calls.  Only capacity
/// hints live here: scratch can never change a Report, just how often the
/// hot paths reallocate.
struct ExecutionScratch {
  /// High-water DiagnosisLog record count this worker has observed; fed to
  /// the scheme as a capacity hint before the next diagnose().
  std::size_t log_records_high_water = 0;
};

class DiagnosisEngine {
 public:
  explicit DiagnosisEngine(EngineOptions options = {});
  ~DiagnosisEngine();
  DiagnosisEngine(const DiagnosisEngine&) = delete;
  DiagnosisEngine& operator=(const DiagnosisEngine&) = delete;

  /// Executes one spec on the calling thread: injects defects, runs the
  /// scheme, scores against ground truth, optionally repairs + re-verifies.
  /// When the spec classifies, signature dictionaries come from
  /// @p classifier_cache if given (run_batch shares one per batch, so a
  /// sweep builds each distinct dictionary once); else they are rebuilt
  /// for this call.  @p scratch, when given, feeds capacity hints into the
  /// scheme and records this run's high-water marks.
  [[nodiscard]] static Report execute(
      const SessionSpec& spec,
      const SchemeRegistry& registry = SchemeRegistry::global(),
      diagnosis::ClassifierCache* classifier_cache = nullptr,
      ExecutionScratch* scratch = nullptr);

  /// Executes the batch across the persistent worker pool and aggregates.
  /// Per-run Reports land in AggregateReport::runs at their submission
  /// index.  This is run_stream() with the whole batch as one window whose
  /// Reports are kept rather than dropped: the same dispatch, the same
  /// submission-order fold.  No threads are spawned here — the pool
  /// outlives the batch.  Blocking and re-entry follow the concurrency
  /// contract at the top of this header.
  [[nodiscard]] AggregateReport run_batch(
      const std::vector<SessionSpec>& specs) const;

  /// Convenience: expand the sweep, then run_batch() the product.
  [[nodiscard]] Expected<AggregateReport, ConfigError> run_sweep(
      const SweepSpec& sweep) const;

  /// Per-run callback of run_stream(): @p index is the run's absolute
  /// stream position.
  using RunSink = std::function<void(std::size_t index, const Report&)>;

  /// Pull-source of specs for run_stream(); nullopt ends the stream.
  /// Called only on the submitting thread, in submission order.
  using SpecSource = std::function<std::optional<SessionSpec>()>;

  struct StreamOptions {
    /// Specs in flight at once (the reorder window): bounds the streaming
    /// sweep's memory at O(window) Reports regardless of stream length.
    /// 0 picks 4x the engine's workers (at least 16).
    std::size_t window = 0;

    /// Per-run result sink, called on the submitting thread in
    /// submission-index order once the run's chunk has finished (outside
    /// any dispatch, so it may call back into this engine); the Report is
    /// dropped right after, never retained.
    RunSink sink;

    /// When non-zero, progress() fires exactly at every multiple of this
    /// many completed runs (and once more at stream end) with the folded
    /// prefix aggregate — the checkpointing hook.  The partial aggregate a
    /// given completed count sees depends only on that prefix, never on
    /// window size or scheduling.
    std::size_t progress_interval = 0;
    std::function<void(std::uint64_t completed, const AggregateReport&)>
        progress;
  };

  struct StreamResult {
    /// Folded-only aggregate (runs stays empty): fixed-size statistics
    /// over every streamed run, including any resumed-from prefix.
    AggregateReport aggregate;

    /// Runs folded in total (== aggregate.folded.count).
    std::uint64_t completed = 0;
  };

  /// Streams specs from @p source through the worker pool with a bounded
  /// in-flight window, folding each Report into the aggregate in
  /// submission order and then dropping it — memory stays O(workers +
  /// window), independent of stream length.  One ClassifierCache spans the
  /// whole stream, so a resident sweep keeps its dictionaries warm.
  ///
  /// @p resume seeds the fold: pass a checkpointed folded aggregate (and a
  /// source seeked past its completed prefix) and the final aggregate is
  /// bit-identical to an uninterrupted run — folding is sequential in
  /// stream order on both paths.
  [[nodiscard]] StreamResult run_stream(const SpecSource& source,
                                        const StreamOptions& options,
                                        AggregateReport resume = {}) const;
  [[nodiscard]] StreamResult run_stream(const SpecSource& source) const {
    return run_stream(source, StreamOptions{});
  }

  /// Threads run_batch() would use for a batch of @p batch_size runs
  /// (including the calling thread, which always participates).
  [[nodiscard]] std::size_t worker_count(std::size_t batch_size) const;

  /// Pool threads owned by this engine — created at construction, torn
  /// down at destruction, never touched in between.  resolved workers - 1
  /// (the calling thread is the remaining worker), so 0 for workers == 1.
  [[nodiscard]] std::size_t pool_threads() const;

 private:
  class WorkerPool;

  [[nodiscard]] const SchemeRegistry& registry() const;

  /// The dispatch core of run_batch()/run_stream(): executes one chunk
  /// under the dispatch lock, sharing @p classifier_cache across its
  /// workers, and returns the Reports at their submission indices.
  [[nodiscard]] std::vector<Report> run_chunk(
      const std::vector<SessionSpec>& specs,
      diagnosis::ClassifierCache& classifier_cache) const;

  EngineOptions options_;
  std::size_t resolved_workers_ = 1;
  std::unique_ptr<WorkerPool> pool_;  ///< nullptr when resolved_workers_ == 1

  /// Held by run_chunk() for one chunk: one dispatch per engine at a time.
  mutable std::mutex dispatch_mutex_;

  /// Slot w belongs to worker w (slot 0 = the thread holding the dispatch
  /// lock); a slot is only ever touched by its worker while a chunk runs.
  mutable std::vector<ExecutionScratch> scratch_;
};

}  // namespace fastdiag::core
