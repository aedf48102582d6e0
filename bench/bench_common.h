// Shared plumbing of the bench binaries: every binary first regenerates its
// paper table(s) on stdout, then runs its google-benchmark microbenchmarks.
// Binaries that export machine-readable results print one `JSON: {...}`
// line built with util::json's JsonObject (CI greps the prefix and uploads
// the object).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "util/json.h"
#include "util/simd.h"

/// Call at the end of main(): runs the registered microbenchmarks.
inline int run_microbenchmarks(int argc, char** argv) {
  std::printf("\n-- microbenchmarks ------------------------------------\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

inline void print_banner(const char* experiment, const char* claim) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("================================================================\n\n");
}

/// The JSON writer lives in util/json.h so the diagd stats endpoint shares
/// it; benches keep their historical unqualified names.
using fastdiag::util::JsonObject;
using fastdiag::util::json_array;

/// The one line CI greps for: `JSON: {...}`.
inline void print_json_line(const JsonObject& object) {
  std::printf("\nJSON: %s\n", object.str().c_str());
}

/// Every SIMD dispatch level this CPU can run, lowest first; benches walk
/// them with fastdiag::simd::force to re-check bit-identity per level.
inline std::vector<fastdiag::simd::IsaLevel> reachable_isa_levels() {
  using fastdiag::simd::IsaLevel;
  std::vector<IsaLevel> levels{IsaLevel::scalar};
  if (fastdiag::simd::detected_level() >= IsaLevel::avx2) {
    levels.push_back(IsaLevel::avx2);
  }
  if (fastdiag::simd::detected_level() >= IsaLevel::avx512) {
    levels.push_back(IsaLevel::avx512);
  }
  return levels;
}
