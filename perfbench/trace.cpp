#include "trace.h"

#include <cstdio>
#include <map>
#include <stdexcept>

#include "bisd/repair.h"
#include "bisd/soc.h"
#include "diagnosis/classifier.h"
#include "diagnosis/syndrome.h"

namespace fdbench {

using namespace fastdiag;

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), saved_parent_(tracer.open_) {
  index_ = static_cast<std::int32_t>(tracer_.spans_.size());
  tracer_.spans_.push_back(
      Span{name, tracer_.now_ns(), 0, saved_parent_, tracer_.run_});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = tracer_.now_ns();
  tracer_.open_ = saved_parent_;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"run\":%u}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent, span.run);
  }
  return std::fclose(file) == 0;
}

core::Report traced_execute(const core::SessionSpec& spec,
                            diagnosis::ClassifierCache* classifier_cache,
                            Tracer& tracer, RunCounts& counts) {
  // In-field runs score their upsets in the engine, which this replica
  // does not rebuild; no workload generates them.
  if (spec.soft_error().enabled) {
    throw std::invalid_argument("traced replica: soft-error specs unsupported");
  }
  const core::SchemeRegistry& registry = core::SchemeRegistry::global();
  auto soc = [&] {
    const Tracer::Scope span(tracer, "faults.inject");
    return bisd::SocUnderTest::from_injection(spec.configs(), spec.injection(),
                                              spec.seed(), nullptr);
  }();
  soc.set_access_kernel(spec.access_kernel());
  auto scheme = [&] {
    const Tracer::Scope span(tracer, "core.make_scheme");
    return registry.make(spec.scheme(), {.clock = spec.clock()});
  }();

  core::Report report;
  report.scheme_name = spec.scheme();
  report.scheme_description = scheme->name();
  report.seed = spec.seed();
  report.defect_rate = spec.injection().cell_defect_rate;
  report.injected_faults = soc.total_faults();
  {
    const Tracer::Scope span(tracer, "bisd.diagnose");
    report.result = scheme->diagnose(soc);
  }
  report.total_ns = report.result.total_ns(spec.clock());
  counts.log_records += report.result.log.records().size();
  for (std::size_t i = 0; i < soc.memory_count(); ++i) {
    const auto& ops = soc.memory(i).counters();
    counts.sram_ops += ops.reads + ops.writes + ops.nwrc_writes;
  }

  for (std::size_t i = 0; i < soc.memory_count(); ++i) {
    const Tracer::Scope span(tracer, "faults.match");
    report.matches.push_back(faults::match_diagnosis(
        soc.truth(i), report.result.log.cells(i), soc.config(i)));
  }

  if (spec.classify()) {
    if (const auto test = scheme->classification_test(soc.max_bits())) {
      std::vector<diagnosis::MemorySyndrome> syndromes;
      {
        const Tracer::Scope span(tracer, "diagnosis.syndrome");
        syndromes = diagnosis::extract_syndromes(report.result.log,
                                                 soc.memory_count());
      }
      diagnosis::ClassifierOptions classifier_options;
      classifier_options.clock = spec.clock();
      const Tracer::Scope span(tracer, "diagnosis.classify");
      auto soc_classification = diagnosis::classify_soc(
          soc, syndromes, *test, classifier_options, classifier_cache);
      report.classification = core::ClassificationOutcome{
          std::move(soc_classification.memories),
          std::move(soc_classification.confusion)};
      counts.sites += report.classification->site_count();
    }
  }

  if (spec.repair()) {
    bool repairable = false;
    {
      const Tracer::Scope span(tracer, "bisd.repair");
      if (spec.column_spares()) {
        report.repair_2d = bisd::plan_repair_2d(report.result.log, soc);
        bisd::apply_repair(soc, *report.repair_2d);
        repairable = report.repair_2d->fully_repairable();
      } else {
        report.repair = bisd::plan_repair(report.result.log, soc);
        bisd::apply_repair(soc, *report.repair);
        repairable = report.repair->fully_repairable();
      }
    }
    const Tracer::Scope span(tracer, "bisd.rediagnose");
    const auto verify = scheme->diagnose(soc);
    report.repair_verified_clean = repairable && verify.log.empty();
  }
  return report;
}

SpanSummary summarize(const std::vector<Span>& spans, std::size_t runs) {
  SpanSummary summary;
  summary.per_run_ms.resize(runs);
  double root_ns = 0.0;
  double child_ns = 0.0;
  for (const Span& span : spans) {
    const double ns = static_cast<double>(span.end_ns - span.start_ns);
    if (span.run < runs) {
      summary.per_run_ms[span.run][span.name] += ns / 1e6;
    }
    if (span.parent < 0) {
      root_ns += ns;
    } else if (spans[static_cast<std::size_t>(span.parent)].parent < 0) {
      child_ns += ns;
    }
  }
  summary.coverage = root_ns > 0.0 ? child_ns / root_ns : 0.0;
  return summary;
}

}  // namespace fdbench
