// Shared vocabulary of the repository benchmark (fdbench): options, the
// result every workload fills, and the small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace fdbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports, printed as its last stdout line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// Counts one output check as an attempted operation; a failing check
  /// is a failed operation and makes the result incorrect.
  void check(bool ok, const std::string& what);

  /// Counts @p count operations of the measured workload, @p failures of
  /// which failed (threw, error frame, undecodable reply).
  void operations(std::uint64_t count, std::uint64_t failures);
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Median of @p values (0 when empty); takes a copy to sort.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, @p p in [0, 100] (0 when empty).
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Resident-set high-water mark in MiB since the last reset_peak_rss()
/// (since process start when /proc/self/clear_refs is unavailable).
[[nodiscard]] double peak_rss_mb();
void reset_peak_rss();

/// splitmix64: derives independent seeds from the workload seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

Result run_fleet_sweep(const Options& options);
Result run_diagd_classify(const Options& options);

}  // namespace fdbench
