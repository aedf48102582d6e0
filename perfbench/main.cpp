// fdbench: the repository benchmark's executable.
//
//   fdbench --workload <fleet_sweep|diagd_classify> --seed <n>
//           --seconds <s> --trace <0|1> [--commit <id>] [--trace-out <path>]
//
// Prints a machine stamp, human-readable progress, and as its last stdout
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// perfbench/run.py builds this binary and is the command to run.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"
#include "util/simd.h"

namespace fdbench {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
    std::fprintf(stderr, "fdbench: check failed: %s\n", what.c_str());
  }
}

void Result::operations(std::uint64_t count, std::uint64_t failures) {
  attempted += count;
  failed += failures;
  if (failures != 0) {
    correct = false;
  }
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void reset_peak_rss() {
  // Hand freed heap pages back first, so the mark starts from what is live
  // rather than from earlier passes' fragmentation; then writing 5 to
  // clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace fdbench

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "fdbench: %s\nusage: fdbench --workload "
               "<fleet_sweep|diagd_classify> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] "
               "[--trace-out <path>]\n",
               message);
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// JSON string body: the stamp fields are free text from the host.
std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

/// Shortest decimal that round-trips: every measured digit, no padding.
std::string number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : std::string("0");
}

}  // namespace

int main(int argc, char** argv) {
  fdbench::Options options;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("malformed value for " + flag).c_str());
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) {
    usage("--workload and a positive --seconds are required");
  }

  // Resolve the dispatch table first so FASTDIAG_FORCE_ISA is honoured
  // (and reported) before any kernel runs.
  (void)fastdiag::simd::dispatch();
  std::printf(
      "stamp {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
      "\"nproc\":%ld,\"cpu\":\"%s\",\"isa\":\"%s\",\"build_type\":\"%s\","
      "\"commit\":\"%s\"}\n",
      escaped(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      number(options.seconds).c_str(), options.trace ? 1 : 0,
      sysconf(_SC_NPROCESSORS_ONLN), escaped(cpu_model()).c_str(),
      fastdiag::simd::isa_name(fastdiag::simd::active_level()),
      FDBENCH_BUILD_TYPE, escaped(commit).c_str());
  std::fflush(stdout);

  fdbench::Result result;
  try {
    if (options.workload == "fleet_sweep") {
      result = fdbench::run_fleet_sweep(options);
    } else if (options.workload == "diagd_classify") {
      result = fdbench::run_diagd_classify(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "fdbench: %s\n", error.what());
    return 1;
  }

  std::printf("failed_ratio %s (%llu of %llu operations)\n",
              number(static_cast<double>(result.failed) /
                     static_cast<double>(std::max<std::uint64_t>(
                         result.attempted, 1)))
                  .c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& metric = result.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
