// Tracing for the benchmark's traced runs: in-memory spans recorded around
// the calls into each library layer, and a replica of
// core::DiagnosisEngine::execute that makes those calls — the same public
// functions, in the same order — with a span around each one.
//
// The replica must stay byte-identical to DiagnosisEngine::execute (the
// workloads compare service::encode_report of both for every replayed spec
// and fail the run otherwise), so the per-layer split always describes the
// program the untraced end-to-end numbers measured.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "core/engine.h"

namespace fdbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index into Tracer::spans(), -1 = root
  std::uint32_t run = 0;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// RAII span: opened as a child of the innermost open span, closed when
  /// the scope ends.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_;
    std::int32_t saved_parent_;
  };

  /// Subsequent spans belong to run @p run.
  void begin_run(std::uint32_t run) { run_ = run; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint32_t run_ = 0;
};

/// Counts read from public accessors at the layer boundaries of one run.
struct RunCounts {
  std::uint64_t sram_ops = 0;     ///< Sram::counters() after diagnose
  std::uint64_t log_records = 0;  ///< DiagnosisLog size after diagnose
  std::uint64_t sites = 0;        ///< classified sites
};

/// DiagnosisEngine::execute, call for call, with a span around each call
/// into a library layer.  Runs under the caller's open span.
[[nodiscard]] fastdiag::core::Report traced_execute(
    const fastdiag::core::SessionSpec& spec,
    fastdiag::diagnosis::ClassifierCache* classifier_cache, Tracer& tracer,
    RunCounts& counts);

/// Per-run span time: for each run id, milliseconds summed per span name.
/// "coverage" is the share of the root spans' time their direct children
/// cover, across all runs.
struct SpanSummary {
  std::vector<std::map<std::string, double>> per_run_ms;
  double coverage = 0.0;
};

[[nodiscard]] SpanSummary summarize(const std::vector<Span>& spans,
                                    std::size_t runs);

}  // namespace fdbench
