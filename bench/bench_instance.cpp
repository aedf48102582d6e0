// E12 — instance-sliced kernel throughput with runtime SIMD dispatch.
//
// The instance_sliced access kernel advances a group of up to 64
// identical-geometry fault-free memories as bit-lanes of one packed
// InstanceSlab: one March op costs one word op per cell-column for the whole
// fleet instead of one per memory.  This bench diagnoses a homogeneous
// 64-memory fleet with FastScheme under instance_sliced vs word_parallel at
// every SIMD dispatch level this CPU supports (simd::force walks scalar ->
// avx2 -> avx512), asserting bit-identical logs/cycles/op counters per level
// and reporting the speedup trajectory (CI uploads BENCH_instance.json; the
// bit_identical flags are gated hard, the speedups are informational).
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/fastdiag.h"
#include "util/format.h"
#include "util/table.h"

namespace {

using namespace fastdiag;

constexpr int kFleetSize = 64;

/// A homogeneous fleet: 64 identical fault-free e-SRAMs (the sweet spot of
/// instance slicing — every memory rides one slab).
bisd::SocUnderTest build_fleet(sram::AccessKernel kernel) {
  bisd::SocUnderTest soc;
  for (int i = 0; i < kFleetSize; ++i) {
    sram::SramConfig config;
    config.name = "fleet" + std::to_string(i);
    config.words = 256;
    config.bits = 72;
    config.spare_rows = 4;
    soc.add_memory(config);
  }
  soc.set_access_kernel(kernel);
  return soc;
}

struct KernelRun {
  double seconds = 0;
  std::uint64_t simulated_ops = 0;
  std::uint64_t cycles = 0;
  std::string log_csv;

  [[nodiscard]] double mops_per_sec() const {
    return static_cast<double>(simulated_ops) / seconds / 1e6;
  }
};

KernelRun run_diagnosis(sram::AccessKernel kernel) {
  auto soc = build_fleet(kernel);
  bisd::FastScheme scheme;
  const auto start = std::chrono::steady_clock::now();
  const auto result = scheme.diagnose(soc);
  const auto stop = std::chrono::steady_clock::now();

  KernelRun run;
  run.seconds = std::chrono::duration<double>(stop - start).count();
  for (std::size_t i = 0; i < soc.memory_count(); ++i) {
    const auto& counters = soc.memory(i).counters();
    run.simulated_ops +=
        counters.reads + counters.writes + counters.nwrc_writes;
  }
  run.cycles = result.time.cycles;
  run.log_csv = result.log.to_csv();
  return run;
}

KernelRun best_of(int repetitions, sram::AccessKernel kernel) {
  KernelRun best = run_diagnosis(kernel);
  for (int r = 1; r < repetitions; ++r) {
    const KernelRun run = run_diagnosis(kernel);
    if (run.seconds < best.seconds) {
      best = run;
    }
  }
  return best;
}

struct LevelResult {
  simd::IsaLevel level = simd::IsaLevel::scalar;
  KernelRun sliced;
  KernelRun word;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return sliced.mops_per_sec() / word.mops_per_sec();
  }
};

bool instance_table() {
  constexpr int kRepetitions = 3;
  std::vector<LevelResult> results;
  for (const auto level : reachable_isa_levels()) {
    if (!simd::force(level)) {
      continue;
    }
    LevelResult result;
    result.level = level;
    result.sliced = best_of(kRepetitions, sram::AccessKernel::instance_sliced);
    result.word = best_of(kRepetitions, sram::AccessKernel::word_parallel);
    result.identical = result.sliced.cycles == result.word.cycles &&
                       result.sliced.simulated_ops == result.word.simulated_ops &&
                       result.sliced.log_csv == result.word.log_csv;
    results.push_back(result);
  }
  simd::force(simd::detected_level());

  TablePrinter table({"dispatch", "kernel", "wall time", "sim Mops/s",
                      "speedup", "bit-identical"});
  table.set_title("64 identical fault-free memories, fast-scheme diagnosis");
  bool all_identical = true;
  for (const auto& result : results) {
    all_identical = all_identical && result.identical;
    table.add_row({simd::isa_name(result.level), "word_parallel",
                   fmt_double(result.word.seconds * 1e3, 1) + " ms",
                   fmt_double(result.word.mops_per_sec(), 2), "1.00x",
                   result.identical ? "yes" : "NO"});
    table.add_row({simd::isa_name(result.level), "instance_sliced",
                   fmt_double(result.sliced.seconds * 1e3, 1) + " ms",
                   fmt_double(result.sliced.mops_per_sec(), 2),
                   fmt_ratio(result.speedup()),
                   result.identical ? "yes" : "NO"});
  }
  table.add_note("one 64-lane slab advances the whole fleet per word op");
  table.add_note("speedup = instance_sliced vs word_parallel at that level");
  table.print(std::cout);

  std::string levels_json = "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    levels_json += (i == 0 ? "" : ",");
    levels_json += JsonObject()
                       .field("isa", simd::isa_name(result.level))
                       .field("seconds_sliced", result.sliced.seconds)
                       .field("seconds_word", result.word.seconds)
                       .field("mops_sliced", result.sliced.mops_per_sec(), 2)
                       .field("mops_word", result.word.mops_per_sec(), 2)
                       .field("speedup", result.speedup(), 2)
                       .field("bit_identical", result.identical)
                       .str();
  }
  levels_json += "]";
  print_json_line(JsonObject()
                      .field("bench", "instance")
                      .field("memories", kFleetSize)
                      .field("march", "March CW+NWRTM")
                      .field("detected", simd::isa_name(simd::detected_level()))
                      .field("all_bit_identical", all_identical)
                      .raw("levels", levels_json));
  return all_identical;
}

// ---- microbenchmarks ------------------------------------------------------

void BM_Transpose64x64(benchmark::State& state) {
  std::uint64_t block[64];
  for (int i = 0; i < 64; ++i) {
    block[i] = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i + 1);
  }
  for (auto _ : state) {
    simd::transpose_64x64(block);
    benchmark::DoNotOptimize(block[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Transpose64x64);

void BM_LaneDiffOr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> lanes(n), expect(n);
  for (std::size_t i = 0; i < n; ++i) {
    lanes[i] = expect[i] = 0x5555555555555555ull ^ i;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simd::dispatch().lane_diff_or(lanes.data(), expect.data(), ~0ull, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LaneDiffOr)->Arg(18)->Arg(72)->Arg(512);

void BM_InstanceSlabGather(benchmark::State& state) {
  sram::SramConfig config;
  config.name = "bm";
  config.words = 256;
  config.bits = 72;
  std::vector<std::unique_ptr<sram::Sram>> fleet;
  std::vector<sram::Sram*> lanes;
  for (int i = 0; i < 64; ++i) {
    fleet.push_back(std::make_unique<sram::Sram>(config));
    lanes.push_back(fleet.back().get());
  }
  sram::InstanceSlab slab(lanes);
  for (auto _ : state) {
    slab.gather();
    benchmark::DoNotOptimize(slab.column(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_InstanceSlabGather)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_banner("E12: instance-sliced kernel (64 memories per word op)",
               "bit-slicing whole instances multiplies the word-parallel win "
               "by the fleet width at bit-identical diagnosis results");
  const bool identical = instance_table();
  if (!identical) {
    std::cerr << "FATAL: instance_sliced diverged from word_parallel\n";
    return 1;
  }
  return run_microbenchmarks(argc, argv);
}
