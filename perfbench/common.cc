#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double g_process_start_us = 0.0;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool BitwiseEqual(const std::vector<double>& a,
                  const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Buffer* Tracer::ThisThread() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<int>(buffers_.size());
    buffer->spans.reserve(1 << 12);
  }
  return buffer;
}

void Tracer::Record(const char* name, double start_us, double end_us,
                    uint64_t key, double arg) {
  if (!enabled()) return;
  Buffer* buffer = ThisThread();
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  span.key = key;
  span.arg = arg;
  span.tid = buffer->tid;
  buffer->spans.push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"traceEvents\":[");
  bool first = true;
  for (const Span& span : Collect()) {
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"key\":%llu,"
                 "\"arg\":%.17g}}",
                 first ? "" : ",", span.name, span.tid,
                 span.start_us - g_process_start_us, span.us(),
                 static_cast<unsigned long long>(span.key), span.arg);
    first = false;
  }
  std::fprintf(file, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(file) == 0;
}

void PhaseLog::Add(const char* name, double start_us, double end_us) {
  Span span;
  span.name = name;
  span.start_us = start_us;
  span.end_us = end_us;
  phases_.push_back(span);
}

double PhaseLog::CoveredUs() const {
  std::vector<Span> sorted = phases_;
  std::sort(sorted.begin(), sorted.end(), [](const Span& a, const Span& b) {
    return a.start_us < b.start_us;
  });
  double covered = 0.0;
  double reach = -1e300;
  for (const Span& span : sorted) {
    const double from = std::max(span.start_us, reach);
    if (span.end_us > from) covered += span.end_us - from;
    reach = std::max(reach, span.end_us);
  }
  return covered;
}

void Checks::Expect(const std::string& name,
                    const std::function<bool(bool)>& check) {
  const bool real = check(false);
  const bool corrupted = check(true);
  const bool pass = real && !corrupted;
  std::fprintf(stderr, "check %-44s %s%s\n", name.c_str(),
               pass ? "ok" : "FAILED",
               pass ? ""
                    : (real ? " (self-test: corrupted input was accepted)"
                            : " (real output rejected)"));
  if (!pass) ok_ = false;
}

void Checks::Fail(const std::string& what) {
  std::fprintf(stderr, "check FAILED: %s\n", what.c_str());
  ok_ = false;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerSchema() {
  static const std::vector<std::pair<std::string, std::string>> schema = {
      {"envs.step_us", "us"},
      {"envs.step_calls", "count"},
      {"core.agent_step_us", "us"},
      {"core.agent_step_rows", "count"},
      {"rl.rollout_wall_us", "us"},
      {"rl.rollout_wait_us", "us"},
      {"core.forward_rollout_us", "us"},
      {"core.forward_rollout_calls", "count"},
      {"rl.update_rest_us", "us"},
      {"train.eval_us", "us"},
      {"train.iteration_us", "us"},
      {"sim.simset_build_s", "s"},
      {"serve.service_us_p50", "us"},
      {"serve.service_us_p99", "us"},
      {"transport.overhead_us_p50", "us"},
      {"transport.overhead_us_p99", "us"},
      {"serve.batches_per_kreq", "count"},
      {"serve.batch_occupancy_mean", "rows"},
      {"serve.queue_depth_max", "count"},
      {"serve.session_hits_per_kreq", "count"},
      {"serve.session_misses_per_kreq", "count"},
      {"serve.session_evictions", "count"},
      {"infer.plan_forward_us_b1", "us"},
      {"infer.plan_forward_us_b16", "us"},
      {"load.driver_us", "us"},
      {"op_samples", "count"},
      {"trace.coverage_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return schema;
}

}  // namespace perfbench
