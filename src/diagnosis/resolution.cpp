#include "diagnosis/resolution.h"

#include <utility>

namespace fastdiag::diagnosis {

ResolutionFlow::ResolutionFlow(ResolutionOptions options)
    : options_(options) {}

ResolutionReport ResolutionFlow::run(bisd::SocUnderTest& soc) const {
  bisd::FastSchemeOptions scheme_options;
  scheme_options.clock = options_.clock;
  scheme_options.include_drf = options_.include_drf;
  bisd::FastScheme scheme(scheme_options);

  ResolutionReport report;
  report.diagnosis = scheme.diagnose(soc);
  report.syndromes =
      extract_syndromes(report.diagnosis.log, soc.memory_count());

  if (options_.classify) {
    // Ask the scheme that produced the log for the matching test, and
    // probe on the clock it ran at.
    if (const auto test = scheme.classification_test(soc.max_bits())) {
      auto classifier_options = options_.classifier;
      classifier_options.clock = options_.clock;
      auto classification = classify_soc(soc, report.syndromes, *test,
                                         classifier_options,
                                         &classifier_cache_);
      report.classifications = std::move(classification.memories);
      report.confusion = std::move(classification.confusion);
    }
  }

  if (options_.column_spares) {
    report.repair_2d = bisd::plan_repair_2d(report.diagnosis.log, soc);
    bisd::apply_repair(soc, *report.repair_2d);
    report.fully_repaired = report.repair_2d->fully_repairable();
  } else {
    report.repair = bisd::plan_repair(report.diagnosis.log, soc);
    bisd::apply_repair(soc, *report.repair);
    report.fully_repaired = report.repair->fully_repairable();
  }

  report.retest = scheme.diagnose(soc);
  report.residual_records = report.retest.log.records().size();
  return report;
}

std::string ResolutionReport::summary() const {
  std::string out;
  out += "diagnosis: " + std::to_string(diagnosis.log.records().size()) +
         " records, " + std::to_string(diagnosis.log.distinct_cell_count()) +
         " distinct cells\n";
  std::size_t sites = 0;
  std::size_t classified = 0;
  for (const auto& memory : classifications) {
    sites += memory.sites.size();
    classified += memory.classified_sites();
  }
  if (!classifications.empty()) {
    out += "classification: " + std::to_string(classified) + "/" +
           std::to_string(sites) + " sites classified, lenient accuracy " +
           std::to_string(confusion.lenient_accuracy()) + "\n";
  }
  if (repair.has_value()) {
    out += "repair: " + std::to_string(repair->repaired_row_count()) +
           " rows remapped, " +
           std::to_string(repair->unrepaired_row_count()) + " unrepaired\n";
  }
  if (repair_2d.has_value()) {
    out += "repair: " + std::to_string(repair_2d->spare_rows_used()) +
           " spare rows + " + std::to_string(repair_2d->spare_cols_used()) +
           " spare columns\n";
  }
  out += "retest: " + std::to_string(residual_records) +
         " residual records (" + (clean() ? "clean" : "NOT clean") + ")\n";
  return out;
}

}  // namespace fastdiag::diagnosis
