// The two benchmark workloads.  Each one generates its specs from the
// seed, sets up (repeatedly, for a steady setup_s), measures warm passes for
// the requested seconds, and checks its own outputs; the traced variant
// replays the specs through the traced replica instead and reports the
// per-layer split.  See perfbench/README.md for why each workload exists.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis/time_model.h"
#include "bench.h"
#include "core/engine.h"
#include "service/protocol.h"
#include "service/serialize.h"
#include "service/server.h"
#include "trace.h"

namespace fdbench {

using namespace fastdiag;

namespace {

constexpr std::size_t kWorkers = 3;  ///< one core of four left to the harness
constexpr int kSetups = 3;           ///< setup_s is the median of these

// ---- per-layer metric table ------------------------------------------------

/// Every per-layer metric, in BENCHMARK.json order.  A workload that
/// bypasses a layer reports 0 for it.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"bisd.diagnose_defective_ms", "ms"},
    {"bisd.diagnose_clean_ms", "ms"},
    {"faults.match_ms", "ms"},
    {"sram.host_ns_per_op", "ns"},
    {"core.pool_idle_frac", "ratio"},
    {"core.sink_gap_p99_ms", "ms"},
    {"core.job_p99_ms", "ms"},
    {"core.peak_rss_mb", "MB"},
    {"diagnosis.syndrome_ms", "ms"},
    {"diagnosis.classify_ms", "ms"},
    {"diagnosis.sites_per_s", "1/s"},
    {"diagnosis.cache_hit_ratio", "ratio"},
    {"diagnosis.cold_build_s", "s"},
    {"diagnosis.cold_probe_replays", "count"},
    {"diagnosis.cold_slab_batches", "count"},
    {"diagnosis.dictionary_keys", "count"},
    {"bisd.diagnose_ms", "ms"},
    {"bisd.rediagnose_ms", "ms"},
    {"bisd.repair_ms", "ms"},
    {"service.encode_ms", "ms"},
    {"service.decode_ms", "ms"},
    {"service.report_kb", "KB"},
    {"service.overhead_ms", "ms"},
    {"faults.inject_ms", "ms"},
    {"sram.ops_per_run", "count"},
    {"bisd.log_records", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.span_coverage", "ratio"},
    {"diagnosis.class_accuracy", "ratio"},
    {"bisd.sim_diag_cycles", "cycles"},
    {"analysis.sim_model_err", "ratio"},
};

void emit_layers(Result& result, const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    result.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

// ---- spec generation -------------------------------------------------------

sram::SramConfig memory(std::string name, std::uint32_t words,
                        std::uint32_t bits) {
  sram::SramConfig config;
  config.name = std::move(name);
  config.words = words;
  config.bits = bits;
  return config;
}

/// The 22-memory distributed SoC of fleet_sweep; the
/// 512x100 memory is the paper's benchmark e-SRAM and sets the controller's
/// n x c.
std::vector<sram::SramConfig> fleet_soc() {
  std::vector<sram::SramConfig> soc;
  const auto add = [&soc](int count, std::uint32_t words, std::uint32_t bits,
                          const std::string& prefix) {
    for (int i = 0; i < count; ++i) {
      soc.push_back(memory(prefix + std::to_string(i), words, bits));
    }
  };
  add(8, 64, 16, "buf");
  add(8, 128, 32, "fifo");
  add(4, 256, 8, "lut");
  add(1, 512, 100, "bench");
  add(1, 32, 64, "regs");
  return soc;
}

template <class T>
void shuffle(std::vector<T>& items, std::uint64_t seed) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[mix_seed(seed, i) % i]);
  }
}

core::SessionSpec build(const core::SessionSpec::Builder& builder) {
  auto spec = builder.build();
  if (!spec) {
    throw std::runtime_error("spec rejected: " + spec.error().to_string());
  }
  return std::move(spec).value();
}

/// A pass is five windows of 16 specs: run_stream's default window for 3
/// workers, so each window is one of its chunks.
constexpr std::size_t kFleetWindow = 16;
constexpr std::size_t kFleetWindows = 5;

/// Seeds the fixed order of defect rates inside each window.
constexpr std::uint64_t kFleetLayout = 12;

/// 50 % of the specs at 0 defects, 30 % at 0.1 % and 20 % at 1 %, with
/// every window holding the same mix (8 clean, 5 at 0.1 %, 3 at 1 %; one
/// window holds 4 and 4).  Where each rate sits in its window is fixed
/// (kFleetLayout), so how the heavy runs meet the stream's chunk barrier
/// is the same on every seed; the seed draws each spec's fault population.
std::vector<core::SessionSpec> fleet_specs(std::uint64_t seed) {
  const std::vector<sram::SramConfig> soc = fleet_soc();
  const std::size_t odd_window = mix_seed(kFleetLayout, 99) % kFleetWindows;
  std::vector<core::SessionSpec> specs;
  specs.reserve(kFleetWindow * kFleetWindows);
  for (std::size_t window = 0; window < kFleetWindows; ++window) {
    const std::size_t heavy = window == odd_window ? 4 : 3;
    std::vector<double> rates(kFleetWindow, 0.0);
    std::fill_n(rates.begin() + 8, 8 - heavy, 0.001);
    std::fill_n(rates.end() - static_cast<std::ptrdiff_t>(heavy), heavy, 0.01);
    shuffle(rates, mix_seed(kFleetLayout, 100 + window));
    for (const double rate : rates) {
      specs.push_back(build(core::SessionSpec::builder()
                                .add_srams(soc)
                                .scheme("fast")
                                .defect_rate(rate)
                                .include_retention_faults(true)
                                .access_kernel(
                                    sram::AccessKernel::instance_sliced)
                                .seed(mix_seed(seed, 1000 + specs.size()))));
    }
  }
  return specs;
}

constexpr std::size_t kDiagdJobs = 1000;
constexpr std::size_t kDiagdSegment = 100;  ///< jobs per timed segment

/// diagd_classify's job list: one 4-memory SoC (32-128 words x 8-32 bits,
/// memory order drawn from the seed) at 1 % defects, classify + repair,
/// one defect seed per job.
std::vector<service::JobRequest> diagd_jobs(std::uint64_t seed) {
  std::vector<sram::SramConfig> soc = {memory("m0", 64, 16),
                                       memory("m1", 32, 8),
                                       memory("m2", 64, 8),
                                       memory("m3", 32, 16)};
  shuffle(soc, mix_seed(seed, 3));
  std::vector<service::JobRequest> jobs(kDiagdJobs);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].configs = soc;
    jobs[j].defect_rate = 0.01;
    jobs[j].classify = true;
    jobs[j].repair = true;
    jobs[j].seed = mix_seed(seed, 3000 + j);
  }
  return jobs;
}

// ---- deterministic outcome of a pass ---------------------------------------

/// Everything a pass computes from its Reports.  It depends only on the
/// specs, so every pass of a run — parallel or serial, cold or warm — must
/// produce an equal Outcome; any difference is a correctness failure.
struct Outcome {
  std::uint64_t runs = 0;
  std::uint64_t truth_faults = 0;
  std::uint64_t matched_faults = 0;
  std::uint64_t classified_runs = 0;
  double accuracy_sum = 0.0;
  std::vector<std::uint64_t> sim_ns;
  core::AggregateReport::Folded folded;

  void add(const core::Report& report) {
    ++runs;
    for (const auto& match : report.matches) {
      truth_faults += match.truth_faults;
      matched_faults += match.matched_faults;
    }
    if (report.classification) {
      ++classified_runs;
      accuracy_sum += report.classification->confusion.lenient_accuracy();
    }
    sim_ns.push_back(report.total_ns);
    folded.fold(report);
  }

  /// Diagnosis coverage: fault-weighted recall of the injected faults.
  [[nodiscard]] double recall() const {
    return truth_faults == 0 ? 1.0
                             : static_cast<double>(matched_faults) /
                                   static_cast<double>(truth_faults);
  }
  [[nodiscard]] double class_accuracy() const {
    return classified_runs == 0
               ? 0.0
               : accuracy_sum / static_cast<double>(classified_runs);
  }
  [[nodiscard]] double median_sim_ns() const {
    std::vector<double> values(sim_ns.begin(), sim_ns.end());
    return median(std::move(values));
  }

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6 +
         usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6;
}

bool in_unit_interval(double value) { return value >= 0.0 && value <= 1.0; }

/// Output checks every workload shares: rates are rates, and the fold the
/// benchmark made from the per-run Reports covers every spec.
void check_outcome(Result& result, const Outcome& outcome,
                   std::size_t specs, const char* pass) {
  const std::string where = std::string(" (") + pass + ")";
  result.check(outcome.runs == specs && outcome.folded.count == specs,
               "folded run count equals the spec count" + where);
  result.check(in_unit_interval(outcome.recall()),
               "recall lies in [0,1]" + where);
  result.check(in_unit_interval(outcome.class_accuracy()),
               "classification accuracy lies in [0,1]" + where);
}

/// Simulated diagnosis time against the paper's model (Eq. 2 + Eq. 4,
/// this implementation's accounting) for the SoC's controller n x c.
double sim_model_err(const core::SessionSpec& spec, double sim_ns) {
  std::uint32_t n = 0;
  std::uint32_t c = 0;
  for (const auto& config : spec.configs()) {
    n = std::max(n, config.words);
    c = std::max(c, config.bits);
  }
  const std::uint64_t t = spec.clock().period_ns;
  const double model = static_cast<double>(
      analysis::proposed_no_drf_ns(n, c, t, analysis::Accounting::ours) +
      analysis::proposed_drf_extra_ns(n, c, t, analysis::Accounting::ours));
  return model > 0.0 ? std::abs(sim_ns - model) / model : 0.0;
}

/// Deterministic statistics reported by the traced run.
void outcome_layers(std::map<std::string, double>& layers,
                    const Outcome& outcome, const core::SessionSpec& spec) {
  layers["diagnosis.class_accuracy"] = outcome.class_accuracy();
  if (spec.scheme() == "fast") {
    const double sim_ns = outcome.median_sim_ns();
    layers["bisd.sim_diag_cycles"] =
        sim_ns / static_cast<double>(spec.clock().period_ns);
    layers["analysis.sim_model_err"] = sim_model_err(spec, sim_ns);
  }
}

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    hash = mix_seed(hash ^ word, 0);
  }
  for (; i < bytes.size(); ++i) {
    hash = mix_seed(hash ^ bytes[i], 1);
  }
  return hash;
}

// ---- fleet_sweep ------------------------------------------------------------

struct Pass {
  double wall_s = 0.0;
  std::vector<double> latency_ms;            ///< per run, result order
  std::vector<Clock::time_point> delivered;  ///< per run, result order
  Outcome outcome;
  std::uint64_t failures = 0;
};

/// fleet_sweep's path: run_stream at the default window.  A run's latency
/// runs from the source handing its spec over to the sink receiving its
/// Report.
Pass stream_pass(const core::DiagnosisEngine& engine,
                 const std::vector<core::SessionSpec>& specs) {
  Pass pass;
  pass.latency_ms.reserve(specs.size());
  pass.delivered.reserve(specs.size());
  std::vector<Clock::time_point> pulled(specs.size());
  std::size_t next = 0;
  core::DiagnosisEngine::StreamOptions options;
  options.sink = [&](std::size_t index, const core::Report& report) {
    const auto now = Clock::now();
    pass.latency_ms.push_back(ms_between(pulled[index], now));
    pass.delivered.push_back(now);
    pass.outcome.add(report);
  };
  const auto source = [&]() -> std::optional<core::SessionSpec> {
    if (next == specs.size()) {
      return std::nullopt;
    }
    pulled[next] = Clock::now();
    return specs[next++];
  };
  const auto start = Clock::now();
  try {
    const auto streamed = engine.run_stream(source, options);
    pass.wall_s = seconds_since(start);
    if (!(streamed.aggregate.folded == pass.outcome.folded) ||
        streamed.completed != specs.size()) {
      pass.failures = 1;
    }
  } catch (const std::exception& error) {
    pass.wall_s = seconds_since(start);
    std::fprintf(stderr, "fdbench: stream pass threw: %s\n", error.what());
    pass.failures = specs.size() - pass.outcome.runs;
  }
  return pass;
}

struct EngineSetup {
  std::vector<core::SessionSpec> specs;
  std::unique_ptr<core::DiagnosisEngine> engine;
  Pass warmup;
  double seconds = 0.0;
};

/// Spec generation, a 3-worker engine and one warm-up pass: the first pass
/// of a fresh process runs 10-30 % slow, so it is set-up, never measured.
EngineSetup engine_setup(std::uint64_t seed) {
  const auto start = Clock::now();
  EngineSetup setup;
  setup.specs = fleet_specs(seed);
  setup.engine = std::make_unique<core::DiagnosisEngine>(
      core::EngineOptions{.workers = kWorkers});
  setup.warmup = stream_pass(*setup.engine, setup.specs);
  setup.seconds = seconds_since(start);
  return setup;
}

/// Gaps between consecutive deliveries of a pass, p99.
double delivery_gap_p99_ms(const Pass& pass) {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < pass.delivered.size(); ++i) {
    gaps.push_back(ms_between(pass.delivered[i - 1], pass.delivered[i]));
  }
  return percentile(std::move(gaps), 99.0);
}

Result measure_fleet(const Options& options) {
  Result result;
  std::vector<double> setup_seconds;
  EngineSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = EngineSetup{};  // release the previous engine first
    setup = engine_setup(options.seed);
    setup_seconds.push_back(setup.seconds);
    std::printf("setup %d: %.3f s\n", i, setup.seconds);
    result.operations(setup.specs.size(), setup.warmup.failures);
    check_outcome(result, setup.warmup.outcome, setup.specs.size(),
                  "warm-up");
  }
  const std::size_t n = setup.specs.size();

  std::vector<double> throughput;
  std::vector<double> cpu_ms;
  std::vector<double> latency_ms;
  const auto timed = Clock::now();
  do {
    const double cpu_start = cpu_seconds();
    const Pass pass = stream_pass(*setup.engine, setup.specs);
    cpu_ms.push_back((cpu_seconds() - cpu_start) * 1e3 /
                     static_cast<double>(n));
    result.operations(n, pass.failures);
    result.check(pass.outcome == setup.warmup.outcome,
                 "timed pass repeats the warm-up pass exactly");
    throughput.push_back(static_cast<double>(n) / pass.wall_s);
    std::printf("pass %zu: %.3f runs/s, %.3f ms cpu per run, p50 %.3f ms\n",
                throughput.size(), throughput.back(), cpu_ms.back(),
                percentile(pass.latency_ms, 50.0));
    latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(),
                      pass.latency_ms.end());
  } while (seconds_since(timed) < options.seconds);
  const double timed_s = seconds_since(timed);
  setup.engine.reset();

  const core::DiagnosisEngine serial(core::EngineOptions{.workers = 1});
  const Pass reference = stream_pass(serial, setup.specs);
  result.operations(n, reference.failures);
  result.check(reference.outcome == setup.warmup.outcome,
               "3-worker passes match a serial workers=1 pass exactly");

  const Outcome& outcome = setup.warmup.outcome;
  std::printf("timed %.2f s: %zu passes of %zu runs, %zu latency samples, "
              "median setup %.3f s\n",
              timed_s, throughput.size(), n, latency_ms.size(),
              median(setup_seconds));
  std::printf("det: recall %.6f  median sim %.0f ns\n", outcome.recall(),
              outcome.median_sim_ns());
  result.metric("runs_per_s", median(throughput), "1/s");
  result.metric("cpu_ms_per_run", median(cpu_ms), "ms");
  result.metric("job_p50_ms", percentile(latency_ms, 50.0), "ms");
  result.metric("setup_s", median(setup_seconds), "s");
  result.metric("diag_recall", outcome.recall(), "ratio");
  return result;
}

// ---- traced replay ---------------------------------------------------------

/// What a traced replay produced.
struct Replay {
  Tracer tracer;
  std::vector<RunCounts> counts;
  std::vector<double> report_bytes;
  std::vector<double> execute_ms;  ///< untraced DiagnosisEngine::execute
  Outcome outcome;                 ///< of the untraced execute Reports
};

/// Runs every spec through DiagnosisEngine::execute, timed and untraced,
/// and right after through the traced replica, so drift of the host hits
/// both alike.  The replica gets one "run" root span per spec, covering
/// it plus the report's encode and decode, and must encode byte-identical
/// to execute.
Replay traced_replay(const std::vector<core::SessionSpec>& specs,
                     diagnosis::ClassifierCache* cache, Result& result) {
  Replay replay;
  replay.counts.resize(specs.size());
  std::size_t mismatches = 0;
  std::size_t undecodable = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto start = Clock::now();
    const core::Report plain = core::DiagnosisEngine::execute(
        specs[i], core::SchemeRegistry::global(), cache);
    replay.execute_ms.push_back(ms_between(start, Clock::now()));
    replay.outcome.add(plain);
    const std::vector<std::uint8_t> expected = service::encode_report(plain);

    replay.tracer.begin_run(static_cast<std::uint32_t>(i));
    const Tracer::Scope root(replay.tracer, "run");
    core::Report report =
        traced_execute(specs[i], cache, replay.tracer, replay.counts[i]);
    std::vector<std::uint8_t> bytes;
    {
      const Tracer::Scope span(replay.tracer, "service.encode");
      bytes = service::encode_report(report);
    }
    {
      const Tracer::Scope span(replay.tracer, "service.decode");
      undecodable +=
          service::decode_report(bytes.data(), bytes.size()) ? 0 : 1;
    }
    mismatches += bytes == expected ? 0 : 1;
    replay.report_bytes.push_back(static_cast<double>(bytes.size()));
  }
  result.operations(specs.size(), 0);
  result.check(undecodable == 0, "every traced report decodes");
  result.check(mismatches == 0,
               "traced replica encodes byte-identical to execute");
  return replay;
}

double sum_of(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double value : values) sum += value;
  return sum;
}

double mean_of(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : sum_of(values) / static_cast<double>(values.size());
}

/// The per-layer split of a replay, plus its tracing overhead against the
/// untraced execute times of the same specs.
void replay_layers(std::map<std::string, double>& layers,
                   const Replay& replay,
                   const std::vector<core::SessionSpec>& specs,
                   const Options& options, Result& result) {
  const std::size_t runs = replay.counts.size();
  const SpanSummary summary = summarize(replay.tracer.spans(), runs);
  const auto per_run = [&](const char* name) {
    std::vector<double> values;
    for (const auto& run : summary.per_run_ms) {
      const auto it = run.find(name);
      values.push_back(it == run.end() ? 0.0 : it->second);
    }
    return values;
  };
  const auto mean_where = [&](const char* name, auto keep) {
    const std::vector<double> values = per_run(name);
    std::vector<double> kept;
    for (std::size_t i = 0; i < runs; ++i) {
      if (keep(specs[i])) kept.push_back(values[i]);
    }
    return mean_of(kept);
  };
  const auto fast = [](const core::SessionSpec& spec) {
    return spec.scheme() == "fast";
  };
  layers["bisd.diagnose_defective_ms"] =
      mean_where("bisd.diagnose", [&](const core::SessionSpec& spec) {
        return fast(spec) && spec.injection().cell_defect_rate > 0.0;
      });
  layers["bisd.diagnose_clean_ms"] =
      mean_where("bisd.diagnose", [&](const core::SessionSpec& spec) {
        return fast(spec) && spec.injection().cell_defect_rate == 0.0;
      });
  layers["bisd.diagnose_ms"] = mean_of(per_run("bisd.diagnose"));
  layers["bisd.rediagnose_ms"] = mean_of(per_run("bisd.rediagnose"));
  layers["bisd.repair_ms"] = mean_of(per_run("bisd.repair"));
  layers["faults.match_ms"] = mean_of(per_run("faults.match"));
  layers["faults.inject_ms"] = mean_of(per_run("faults.inject"));
  layers["diagnosis.syndrome_ms"] = mean_of(per_run("diagnosis.syndrome"));
  layers["diagnosis.classify_ms"] = mean_of(per_run("diagnosis.classify"));
  layers["service.encode_ms"] = mean_of(per_run("service.encode"));
  layers["service.decode_ms"] = mean_of(per_run("service.decode"));
  layers["service.report_kb"] = mean_of(replay.report_bytes) / 1024.0;

  const double diagnose_ms = sum_of(per_run("bisd.diagnose"));
  const double classify_ms = sum_of(per_run("diagnosis.classify"));
  RunCounts total;
  for (const RunCounts& counts : replay.counts) {
    total.sram_ops += counts.sram_ops;
    total.log_records += counts.log_records;
    total.sites += counts.sites;
  }
  const double n = static_cast<double>(std::max<std::size_t>(runs, 1));
  layers["sram.host_ns_per_op"] =
      total.sram_ops == 0 ? 0.0
                          : diagnose_ms * 1e6 /
                                static_cast<double>(total.sram_ops);
  layers["sram.ops_per_run"] = static_cast<double>(total.sram_ops) / n;
  layers["bisd.log_records"] = static_cast<double>(total.log_records) / n;
  layers["diagnosis.sites_per_s"] =
      classify_ms > 0.0 ? static_cast<double>(total.sites) /
                              (classify_ms / 1e3)
                        : 0.0;

  // Tracing overhead: the replica without its encode/decode spans against
  // DiagnosisEngine::execute of the same specs.
  const double traced_ms = sum_of(per_run("run")) -
                           sum_of(per_run("service.encode")) -
                           sum_of(per_run("service.decode"));
  const double plain_ms = sum_of(replay.execute_ms);
  layers["trace.overhead_frac"] =
      plain_ms > 0.0 ? traced_ms / plain_ms - 1.0 : 0.0;
  layers["trace.span_coverage"] = summary.coverage;
  result.check(summary.coverage >= 0.95,
               "traced spans cover at least 95% of per-run wall time");
  std::printf("traced %zu runs: span coverage %.4f, overhead %.4f\n", runs,
              summary.coverage, layers["trace.overhead_frac"]);

  if (!options.trace_out.empty() &&
      !replay.tracer.write_jsonl(options.trace_out)) {
    std::fprintf(stderr, "fdbench: cannot write spans to %s\n",
                 options.trace_out.c_str());
  }
}

/// Traced fleet_sweep: set up once, measure one untraced parallel pass
/// (pool idle time, delivery gaps), then replay every spec serially through
/// execute and the traced replica.
Result trace_fleet(const Options& options) {
  Result result;
  EngineSetup setup = engine_setup(options.seed);
  const std::vector<core::SessionSpec>& specs = setup.specs;
  result.operations(specs.size(), setup.warmup.failures);
  reset_peak_rss();
  const Pass parallel = stream_pass(*setup.engine, specs);
  const double rss_mb = peak_rss_mb();
  result.operations(specs.size(), parallel.failures);
  setup.engine.reset();

  const Replay replay = traced_replay(specs, nullptr, result);
  result.check(replay.outcome == setup.warmup.outcome,
               "serial execute matches the 3-worker pass exactly");

  std::map<std::string, double> layers;
  replay_layers(layers, replay, specs, options, result);
  const double execute_s = sum_of(replay.execute_ms) / 1e3;
  layers["core.pool_idle_frac"] =
      1.0 - execute_s / (static_cast<double>(kWorkers) * parallel.wall_s);
  layers["core.sink_gap_p99_ms"] = delivery_gap_p99_ms(parallel);
  layers["core.job_p99_ms"] = percentile(parallel.latency_ms, 99.0);
  layers["core.peak_rss_mb"] = rss_mb;
  outcome_layers(layers, replay.outcome, specs.front());
  emit_layers(result, layers);
  return result;
}

// ---- diagd_classify --------------------------------------------------------

/// One in-process JobServer serving a pipe pair — the exact diagd frame
/// path — and the client end of it.  The closed loop runs one side at a
/// time, so client and server share one CPU: each frame then wakes its
/// reader by a local context switch rather than by waking another vCPU,
/// whose latency on a shared host varies far more than the job itself.
class Connection {
 public:
  Connection() {
    if (pipe(to_server_) != 0 || pipe(from_server_) != 0) {
      throw std::runtime_error("pipe() failed");
    }
    pthread_getaffinity_np(pthread_self(), sizeof client_mask_, &client_mask_);
    thread_ = std::thread([this] {
      (void)server_.serve_connection(to_server_[0], from_server_[1]);
    });
    next_cpu();
  }
  ~Connection() {
    service::Frame reply;
    if (service::write_frame(to_server_[1], service::MessageType::shutdown,
                             std::string())) {
      (void)service::read_frame(from_server_[0], reply);
    }
    thread_.join();
    for (const int fd : {to_server_[0], to_server_[1], from_server_[0],
                         from_server_[1]}) {
      close(fd);
    }
    pthread_setaffinity_np(pthread_self(), sizeof client_mask_, &client_mask_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends one encoded JobRequest and reads the reply frame.
  bool submit(const std::vector<std::uint8_t>& payload,
              service::Frame& reply) {
    return service::write_frame(to_server_[1],
                                service::MessageType::submit_job, payload) &&
           service::read_frame(from_server_[0], reply);
  }

  /// Moves client and server together to the next CPU the client may use.
  /// Rotating spreads a run over every vCPU, whose speeds on a shared host
  /// drift apart for minutes at a time.
  void next_cpu() {
    for (int step = 0; step < CPU_SETSIZE; ++step) {
      cpu_ = (cpu_ + 1) % CPU_SETSIZE;
      if (CPU_ISSET(cpu_, &client_mask_)) {
        break;
      }
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    pthread_setaffinity_np(thread_.native_handle(), sizeof one, &one);
  }

  [[nodiscard]] const service::JobServer& server() const { return server_; }

 private:
  service::JobServer server_;
  cpu_set_t client_mask_{};  ///< the client's affinity before pinning
  int cpu_ = -1;             ///< the CPU both sides are pinned to
  int to_server_[2] = {-1, -1};
  int from_server_[2] = {-1, -1};
  std::thread thread_;
};

struct JobPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> digests;  ///< per job sent, of the reply bytes
  Outcome outcome;
  std::uint64_t failures = 0;
};

/// Sends @p count jobs starting at list index @p first (wrapping around),
/// closed loop: the next job goes out only after the previous job's report
/// arrived and decoded.  Every kDiagdSegment jobs move to the next CPU.
JobPass job_pass(Connection& connection,
                 const std::vector<std::vector<std::uint8_t>>& payloads,
                 std::size_t first, std::size_t count) {
  JobPass pass;
  service::Frame reply;
  const auto start = Clock::now();
  const double cpu_start = cpu_seconds();
  for (std::size_t k = 0; k < count; ++k) {
    if (k % kDiagdSegment == 0) {
      connection.next_cpu();
    }
    const auto sent = Clock::now();
    std::optional<core::Report> report;
    if (connection.submit(payloads[(first + k) % payloads.size()], reply) &&
        reply.type == service::MessageType::job_report) {
      auto decoded = service::decode_report(reply.payload.data(),
                                            reply.payload.size());
      if (decoded) {
        report = std::move(decoded).value();
      }
    }
    if (!report) {
      ++pass.failures;
      pass.digests.push_back(0);
      continue;
    }
    pass.latency_ms.push_back(ms_between(sent, Clock::now()));
    pass.digests.push_back(digest(reply.payload));
    pass.outcome.add(*report);
  }
  pass.wall_s = seconds_since(start);
  pass.cpu_s = cpu_seconds() - cpu_start;
  return pass;
}

struct DiagdSetup {
  std::vector<core::SessionSpec> specs;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::unique_ptr<Connection> connection;
  JobPass cold;
  double seconds = 0.0;
};

/// Job generation, a fresh server (empty dictionary cache) and one cold
/// pass over the job list, which builds every dictionary.
DiagdSetup diagd_setup(std::uint64_t seed) {
  const auto start = Clock::now();
  DiagdSetup setup;
  for (const service::JobRequest& job : diagd_jobs(seed)) {
    auto spec = job.to_spec();
    if (!spec) {
      throw std::runtime_error("job rejected: " + spec.error().to_string());
    }
    setup.specs.push_back(std::move(spec).value());
    setup.payloads.push_back(service::encode_job_request(job));
  }
  setup.connection = std::make_unique<Connection>();
  setup.cold = job_pass(*setup.connection, setup.payloads, 0,
                        setup.payloads.size());
  setup.seconds = seconds_since(start);
  return setup;
}

Result measure_diagd(const Options& options) {
  Result result;
  std::vector<double> setup_seconds;
  DiagdSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = DiagdSetup{};
    setup = diagd_setup(options.seed);
    setup_seconds.push_back(setup.seconds);
    std::printf("setup %d: %.3f s\n", i, setup.seconds);
    result.operations(setup.payloads.size(), setup.cold.failures);
    check_outcome(result, setup.cold.outcome, setup.payloads.size(), "cold");
  }
  const std::size_t n = setup.payloads.size();
  const diagnosis::CacheStats before = setup.connection->server().cache().stats();

  // The timed phase cycles through the list in segments; throughput and
  // CPU time are medians over segments, latency percentiles cover every
  // job sent.
  std::vector<double> throughput;
  std::vector<double> cpu_ms;
  std::vector<double> latency_ms;
  std::size_t cursor = 0;
  std::size_t identical = 0;
  const auto timed = Clock::now();
  do {
    const JobPass pass =
        job_pass(*setup.connection, setup.payloads, cursor, kDiagdSegment);
    result.operations(kDiagdSegment, pass.failures);
    for (std::size_t k = 0; k < kDiagdSegment; ++k) {
      identical += pass.digests[k] == setup.cold.digests[(cursor + k) % n];
    }
    cursor = (cursor + kDiagdSegment) % n;
    throughput.push_back(static_cast<double>(kDiagdSegment) / pass.wall_s);
    cpu_ms.push_back(pass.cpu_s * 1e3 / static_cast<double>(kDiagdSegment));
    latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(),
                      pass.latency_ms.end());
  } while (seconds_since(timed) < options.seconds);
  const double timed_s = seconds_since(timed);
  result.check(identical == throughput.size() * kDiagdSegment,
               "warm job reports are byte-identical to the cold pass");

  const diagnosis::CacheStats after = setup.connection->server().cache().stats();
  result.check(after.probe_replays == before.probe_replays &&
                   after.slab_batches == before.slab_batches &&
                   after.dictionary_keys == before.dictionary_keys &&
                   after.misses == before.misses,
               "the warm timed phase does zero probe replays");
  setup.connection.reset();

  // The server executes jobs serially; check its reports against an
  // in-process serial workers=1 engine over the same specs.
  const core::DiagnosisEngine serial(core::EngineOptions{.workers = 1});
  const core::AggregateReport local = serial.run_batch(setup.specs);
  Outcome reference;
  std::vector<std::uint64_t> digests;
  for (const core::Report& report : local.runs) {
    reference.add(report);
    digests.push_back(digest(service::encode_report(report)));
  }
  result.operations(n, 0);
  result.check(reference == setup.cold.outcome && digests == setup.cold.digests,
               "served reports match a serial workers=1 engine exactly");

  const Outcome& outcome = setup.cold.outcome;
  std::printf("timed %.2f s: %zu segments of %zu jobs from a %zu-job list, "
              "%zu latency samples, median setup %.3f s\n",
              timed_s, throughput.size(), kDiagdSegment, n, latency_ms.size(),
              median(setup_seconds));
  std::printf("det: recall %.6f  accuracy %.6f  median sim %.0f ns\n",
              outcome.recall(), outcome.class_accuracy(),
              outcome.median_sim_ns());
  result.metric("runs_per_s", median(throughput), "1/s");
  result.metric("cpu_ms_per_run", median(cpu_ms), "ms");
  result.metric("job_p50_ms", percentile(latency_ms, 50.0), "ms");
  result.metric("setup_s", median(setup_seconds), "s");
  result.metric("diag_recall", outcome.recall(), "ratio");
  return result;
}

/// Traced diagd_classify: after the cold set-up, every job goes through the
/// server, through DiagnosisEngine::execute and through the traced replica
/// (both on a warm copy of the server's dictionaries); all three encodings
/// must agree byte for byte.
Result trace_diagd(const Options& options) {
  Result result;
  DiagdSetup setup = diagd_setup(options.seed);
  const std::size_t n = setup.payloads.size();
  result.operations(n, setup.cold.failures);
  const diagnosis::CacheStats cold = setup.connection->server().cache().stats();

  diagnosis::ClassifierCache cache;
  const auto blob =
      service::encode_classifier_cache(setup.connection->server().cache());
  result.check(
      service::decode_classifier_cache(blob.data(), blob.size(), cache)
          .has_value(),
      "the server's dictionaries import into a local cache");

  // An imported dictionary finishes its lazy set-up on first use, so one
  // untimed execute pass first; its encodings are the reference bytes.
  std::vector<std::uint64_t> executed;
  for (const core::SessionSpec& spec : setup.specs) {
    executed.push_back(digest(service::encode_report(
        core::DiagnosisEngine::execute(spec, core::SchemeRegistry::global(),
                                       &cache))));
  }
  std::vector<double> round_trip_ms;
  std::vector<std::uint64_t> served;
  service::Frame reply;
  reset_peak_rss();
  for (const auto& payload : setup.payloads) {
    const auto sent = Clock::now();
    const bool ok = setup.connection->submit(payload, reply) &&
                    reply.type == service::MessageType::job_report;
    round_trip_ms.push_back(ms_between(sent, Clock::now()));
    result.operations(1, ok ? 0 : 1);
    served.push_back(ok ? digest(reply.payload) : 0);
  }
  const double rss_mb = peak_rss_mb();
  result.check(served == executed,
               "served reports are byte-identical to execute");

  const diagnosis::CacheStats warm_before = cache.stats();
  const Replay replay = traced_replay(setup.specs, &cache, result);
  const diagnosis::CacheStats warm_after = cache.stats();
  result.check(replay.outcome == setup.cold.outcome,
               "in-process execute repeats the served outcome exactly");
  result.check(warm_after.probe_replays == warm_before.probe_replays,
               "the warm traced replay does zero probe replays");
  setup.connection.reset();

  std::map<std::string, double> layers;
  replay_layers(layers, replay, setup.specs, options, result);
  const double lookups =
      static_cast<double>((warm_after.hits - warm_before.hits) +
                          (warm_after.misses - warm_before.misses));
  layers["diagnosis.cache_hit_ratio"] =
      lookups > 0.0
          ? static_cast<double>(warm_after.hits - warm_before.hits) / lookups
          : 0.0;
  layers["diagnosis.cold_build_s"] = cold.build_seconds;
  layers["diagnosis.cold_probe_replays"] =
      static_cast<double>(cold.probe_replays);
  layers["diagnosis.cold_slab_batches"] =
      static_cast<double>(cold.slab_batches);
  layers["diagnosis.dictionary_keys"] =
      static_cast<double>(cold.dictionary_keys);
  layers["core.peak_rss_mb"] = rss_mb;
  layers["core.job_p99_ms"] = percentile(round_trip_ms, 99.0);
  layers["service.overhead_ms"] =
      mean_of(round_trip_ms) - mean_of(replay.execute_ms);
  outcome_layers(layers, setup.cold.outcome, setup.specs.front());
  emit_layers(result, layers);
  return result;
}

}  // namespace

Result run_fleet_sweep(const Options& options) {
  return options.trace ? trace_fleet(options) : measure_fleet(options);
}

Result run_diagd_classify(const Options& options) {
  return options.trace ? trace_diagd(options) : measure_diagd(options);
}

}  // namespace fdbench
