// End-to-end benchmark of the two hot loops: Sim2Rec training
// (train_lts, train_dpr) and policy serving over TCP (serve_tcp).
//
//   perfbench --workload <train_lts|train_dpr|serve_tcp> --seed <n>
//             --seconds <s> --trace <0|1>
//             [--threads <n>] [--carrier tcp|shm]
//             [--precision float32|double]
//
// The bracketed switches produce the README's reference rows; the
// workloads themselves always run with the defaults (4 threads, TCP,
// float32).
//
// Runs one workload, checks the program's outputs, and prints one JSON
// object as the last line of standard output: the end-to-end metrics
// with --trace 0, the per-layer breakdown of a traced run with
// --trace 1. A failed check prints "correct": false and exits 1; a
// workload that cannot run exits non-zero without a result. run.py
// builds this binary and invokes it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "util/logging.h"

namespace {

using perfbench::Metric;

const std::vector<std::pair<std::string, std::string>>& EndToEndSchema() {
  static const std::vector<std::pair<std::string, std::string>> schema = {
      {"setup_s", "s"},
      {"samples_per_s", "1/s"},
      {"op_us", "us"},
      {"op_tail_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return schema;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train_lts|train_dpr|serve_tcp> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       reference rows: [--threads <n>] "
               "[--carrier tcp|shm] [--precision float32|double]\n");
  return 2;
}

/// Prints `metrics` in `schema` order; a schema entry the workload did
/// not report is 0 (a layer the workload does not exercise).
void PrintResult(bool correct, const perfbench::Result& result,
                 const std::vector<Metric>& metrics,
                 const std::vector<std::pair<std::string, std::string>>&
                     schema) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  bool first = true;
  for (const auto& [name, unit] : schema) {
    double value = 0.0;
    for (const Metric& metric : metrics) {
      if (metric.name == name) value = metric.value;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::g_process_start_us = perfbench::NowUs();
  // Thread counts are the benchmark's (kThreads), not the caller's:
  // the process-wide pool the simulator ensemble fans out on is sized
  // from this variable, and the SIMD switch stays at its default.
  setenv("SIM2REC_THREADS", std::to_string(perfbench::kThreads).c_str(), 1);
  unsetenv("SIM2REC_SIMD");
  unsetenv("SIM2REC_OBS");
  sim2rec::SetLogLevel(sim2rec::LogLevel::kWarn);

  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--threads") {
      options.threads = std::atoi(value.c_str());
      if (options.threads < 1 || options.threads > 64) return Usage();
    } else if (flag == "--carrier" && (value == "tcp" || value == "shm")) {
      options.shm = value == "shm";
    } else if (flag == "--precision" &&
               (value == "float32" || value == "double")) {
      options.double_precision = value == "double";
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage();
  }
  options.out_dir = ".perfbench_out";
  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);

  perfbench::PhaseLog phases;
  perfbench::Checks checks;
  perfbench::Result result;
  try {
    if (options.workload == "train_lts") {
      result = perfbench::RunTrainLts(options, &phases, &checks);
    } else if (options.workload == "train_dpr") {
      result = perfbench::RunTrainDpr(options, &phases, &checks);
    } else if (options.workload == "serve_tcp") {
      result = perfbench::RunServeTcp(options, &phases, &checks);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   options.workload.c_str());
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  bool have_rss = false;
  for (const Metric& metric : result.end_to_end) {
    have_rss |= metric.name == "peak_rss_mb";
  }
  if (!have_rss) {
    result.end_to_end.push_back({"peak_rss_mb", perfbench::PeakRssMb(), "MB"});
  }

  const double wall_us = perfbench::NowUs() - perfbench::g_process_start_us;
  const double coverage = 100.0 * phases.CoveredUs() / wall_us;
  std::fprintf(stderr, "phases cover %.1f%% of %.2f s wall\n", coverage,
               wall_us * 1e-6);
  if (options.trace) {
    if (coverage < 90.0) {
      checks.Fail("named spans cover less than 90% of the wall time");
    }
    result.per_layer.push_back({"trace.coverage_pct", coverage, "%"});
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (!perfbench::Tracer::Get().WriteChromeTrace(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    }
  }
  for (const Metric& metric : result.end_to_end) {
    std::fprintf(stderr, "  %-26s %.6g %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
  for (const Metric& metric : result.per_layer) {
    std::fprintf(stderr, "  %-26s %.6g\n", metric.name.c_str(),
                 metric.value);
  }
  const bool correct = checks.ok() && result.attempted >= 1;
  if (options.trace) {
    PrintResult(correct, result, result.per_layer,
                perfbench::PerLayerSchema());
  } else {
    PrintResult(correct, result, result.end_to_end, EndToEndSchema());
  }
  if (!correct) {
    std::fprintf(stderr, "perfbench: correctness checks failed\n");
    return 1;
  }
  return 0;
}
