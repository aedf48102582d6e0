// E10 (v2 API) — DiagnosisEngine batch throughput vs. worker count.
//
// A 64-run seed sweep over a 32-SRAM heterogeneous SoC, executed at
// 1/2/4/8 workers, each timed as the median of five batches after one
// untimed warm-up.  Every run owns its RNG, SoC and scheme, so the sweep
// is embarrassingly parallel; the engine must (a) keep per-run Reports
// bit-identical to serial execution and (b) scale throughput with cores.
//
// Emits one JSON object on stdout (line prefixed "JSON:") for the perf
// trajectory; the speedup achievable is bounded by the machine's
// hardware_concurrency, which the JSON records.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <thread>

#include "bench_common.h"
#include "core/fastdiag.h"
#include "util/format.h"
#include "util/table.h"

namespace {

using namespace fastdiag;

/// 32 small heterogeneous e-SRAMs: 8 of each of 4 shapes.
std::vector<sram::SramConfig> heterogeneous_soc() {
  std::vector<sram::SramConfig> configs;
  const auto add = [&configs](const std::string& stem, std::uint32_t words,
                              std::uint32_t bits) {
    for (int i = 0; i < 8; ++i) {
      sram::SramConfig config;
      config.name = stem + std::to_string(i);
      config.words = words;
      config.bits = bits;
      config.spare_rows = 8;
      configs.push_back(config);
    }
  };
  add("fifo", 64, 18);
  add("lut", 16, 36);
  add("scratch", 32, 9);
  add("tag", 48, 12);
  return configs;
}

std::vector<core::SessionSpec> sweep_specs(std::size_t runs) {
  core::SweepSpec sweep;
  sweep.base = core::SessionSpec::builder()
                   .add_srams(heterogeneous_soc())
                   .defect_rate(0.01);
  for (std::size_t seed = 1; seed <= runs; ++seed) {
    sweep.seeds.push_back(seed);
  }
  auto specs = sweep.expand();
  if (!specs) {
    std::cerr << "sweep expansion failed: " << specs.error().to_string()
              << '\n';
    std::exit(1);
  }
  return std::move(specs).value();
}

double run_batch_seconds(const std::vector<core::SessionSpec>& specs,
                         std::size_t workers, core::AggregateReport& out) {
  const core::DiagnosisEngine engine({.workers = workers});
  const auto start = std::chrono::steady_clock::now();
  out = engine.run_batch(specs);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

bool same_runs(const core::AggregateReport& a,
               const core::AggregateReport& b) {
  if (a.run_count() != b.run_count()) {
    return false;
  }
  for (std::size_t i = 0; i < a.run_count(); ++i) {
    if (a.runs[i].result.log.to_csv() != b.runs[i].result.log.to_csv() ||
        a.runs[i].result.time.cycles != b.runs[i].result.time.cycles) {
      return false;
    }
  }
  return true;
}

void scaling_table() {
  constexpr std::size_t kRuns = 64;
  // A single cold batch swings by up to 2x between back-to-back runs of the
  // same binary, so every worker count is timed as the median of kRepeats
  // batches after one untimed warm-up, and speedups divide medians.
  constexpr std::size_t kRepeats = 5;
  const auto specs = sweep_specs(kRuns);

  // The untimed warm-up batch is also the serial identity reference.
  core::AggregateReport serial;
  (void)run_batch_seconds(specs, 1, serial);

  TablePrinter table({"workers", "wall time (median)", "runs/s", "speedup",
                      "bit-identical"});
  table.set_title("64-run sweep, 32-SRAM heterogeneous SoC, median of " +
                  std::to_string(kRepeats) + " batches");

  double serial_seconds = 0;
  std::vector<std::string> results;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    std::vector<double> samples;
    bool identical = true;
    for (std::size_t r = 0; r < kRepeats; ++r) {
      core::AggregateReport report;
      samples.push_back(run_batch_seconds(specs, workers, report));
      identical = identical && same_runs(report, serial);
    }
    std::sort(samples.begin(), samples.end());
    const double seconds = samples[kRepeats / 2];
    if (workers == 1) {
      serial_seconds = seconds;
    }
    const double runs_per_s = static_cast<double>(kRuns) / seconds;
    const double speedup = serial_seconds / seconds;
    table.add_row({std::to_string(workers),
                   fmt_double(seconds * 1e3, 1) + " ms",
                   fmt_double(runs_per_s, 1), fmt_ratio(speedup),
                   identical ? "yes" : "NO"});
    results.push_back(JsonObject()
                          .field("workers", static_cast<std::uint64_t>(workers))
                          .field("seconds", seconds)
                          .field("runs_per_sec", runs_per_s, 2)
                          .field("speedup", speedup, 2)
                          .field("bit_identical", identical)
                          .str());
  }

  table.add_note("speedup is bounded by hardware_concurrency = " +
                 std::to_string(std::thread::hardware_concurrency()));
  table.print(std::cout);
  print_json_line(
      JsonObject()
          .field("bench", "engine_scaling")
          .field("runs", static_cast<std::uint64_t>(kRuns))
          .field("repeats", static_cast<std::uint64_t>(kRepeats))
          .field("memories", 32)
          .field("hardware_concurrency",
                 static_cast<std::uint64_t>(
                     std::thread::hardware_concurrency()))
          .raw("results", json_array(results)));
}

// ---- microbenchmarks ------------------------------------------------------

void BM_EngineBatch(benchmark::State& state) {
  const auto specs = sweep_specs(16);
  const auto workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const core::DiagnosisEngine engine({.workers = workers});
    auto report = engine.run_batch(specs);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_EngineBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SweepExpansion(benchmark::State& state) {
  core::SweepSpec sweep;
  sweep.base = core::SessionSpec::builder()
                   .add_srams(heterogeneous_soc());
  sweep.schemes = {"fast", "fast-without-drf", "baseline"};
  sweep.defect_rates = {0.005, 0.01, 0.02, 0.05};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sweep.seeds.push_back(seed);
  }
  for (auto _ : state) {
    auto specs = sweep.expand();
    benchmark::DoNotOptimize(specs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sweep.cardinality()));
}
BENCHMARK(BM_SweepExpansion);

}  // namespace

int main(int argc, char** argv) {
  print_banner("E10: DiagnosisEngine batch scaling",
               "diagnosis runs are embarrassingly parallel; batch "
               "throughput scales with workers at bit-identical results");
  scaling_table();
  return run_microbenchmarks(argc, argv);
}
