// The closed diagnosis loop: diagnose -> classify -> repair -> retest.
//
// The paper stops at collecting complete diagnosis data in one March run
// (Sec. 3); ResolutionFlow is what a production flow does with it.  It runs
// the fast scheme over the SoC, folds the log into syndromes, classifies
// every fault site, allocates and applies spare-row (or 2-D) repair, and
// re-runs the scheme to count residual escapes.  Whenever the spare budget
// covers the defect population, the retest log must come back empty — the
// property the closed-loop tests pin down.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bisd/fast_scheme.h"
#include "bisd/repair.h"
#include "bisd/soc.h"
#include "diagnosis/classifier.h"
#include "diagnosis/syndrome.h"
#include "faults/dictionary.h"
#include "sram/timing.h"

namespace fastdiag::diagnosis {

struct ResolutionOptions {
  sram::ClockDomain clock{10};

  /// Run March CW+NWRTM (DRF coverage) instead of plain March CW.
  bool include_drf = true;

  /// Use the 2-D row+column allocator instead of row-only repair.
  bool column_spares = false;

  /// Classify syndromes (and score them when ground truth is available).
  bool classify = true;

  ClassifierOptions classifier{};
};

struct ResolutionReport {
  /// The initial diagnosis pass.
  bisd::DiagnosisResult diagnosis;

  /// Folded observations, one entry per memory.
  std::vector<MemorySyndrome> syndromes;

  /// Classifier verdicts, one entry per memory (empty when disabled).
  std::vector<MemoryClassification> classifications;

  /// Verdicts scored against the injected ground truth, merged over all
  /// memories (empty when classification is disabled).
  faults::ConfusionMatrix confusion;

  /// Exactly one plan is set, matching ResolutionOptions::column_spares.
  std::optional<bisd::RepairPlan> repair;
  std::optional<bisd::RepairPlan2D> repair_2d;
  bool fully_repaired = false;

  /// The verification pass after repair.
  bisd::DiagnosisResult retest;

  /// Records the retest still produced (0 = the SoC diagnoses clean).
  std::size_t residual_records = 0;

  [[nodiscard]] bool clean() const { return residual_records == 0; }

  /// Human-readable multi-line account of the whole loop.
  [[nodiscard]] std::string summary() const;
};

class ResolutionFlow {
 public:
  explicit ResolutionFlow(ResolutionOptions options = {});

  /// Runs the full loop on @p soc (memories are mutated: patterns written,
  /// spares consumed).
  [[nodiscard]] ResolutionReport run(bisd::SocUnderTest& soc) const;

  /// Counters of the flow's classifier cache (dictionary builds, hit/miss
  /// across run() calls) — observability for production loops.
  [[nodiscard]] CacheStats cache_stats() const {
    return classifier_cache_.stats();
  }

 private:
  ResolutionOptions options_;

  /// Keeps signature dictionaries warm across run() calls on same-shaped
  /// SoCs (e.g. per-device loops on a production line).
  mutable ClassifierCache classifier_cache_;
};

}  // namespace fastdiag::diagnosis
