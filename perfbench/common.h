// Shared pieces of the end-to-end benchmark: clocks, exact quantiles,
// the in-memory span recorder behind the traced run, the correctness
// check harness with its built-in self-test, and the result record the
// workloads fill in.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Threads every workload runs with (the reference host's nproc). Fixed
/// here so no environment variable changes what is measured.
inline constexpr int kThreads = 4;

/// Monotonic microseconds since an arbitrary fixed epoch.
double NowUs();

/// NowUs() taken as the first statement of main(): the cold set-up of
/// every workload is timed from here.
extern double g_process_start_us;

/// Exact quantile of `values` (linear interpolation between order
/// statistics, the "inclusive" definition); 0 for an empty input.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The quantile the end-to-end times are read at: the run's fastest
/// decile of windows (training iterations, serving rounds). The shared
/// host's speed drifts by up to +-25% over seconds to minutes, so a
/// median over a run follows the host; the fast decile is where the
/// program ran least disturbed and repeats from run to run.
inline constexpr double kQuietQuantile = 0.1;

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

/// Bitwise equality of two double vectors (NaN payloads included).
bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b);

/// One recorded span. `key` groups spans that belong together (a
/// rollout step, a request's trace id); `arg` carries one number (rows
/// of an agent step, shard of an env step).
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  uint64_t key = 0;
  double arg = 0.0;
  int tid = 0;
  double us() const { return end_us - start_us; }
};

/// Span recorder for the traced run. Spans go to a per-thread buffer
/// (no lock shared between recording threads) and stay in memory until
/// Collect() at the end of the run. Recording is a no-op unless
/// enabled, so the same decorators can sit on the path untraced.
class Tracer {
 public:
  static Tracer& Get();

  /// Toggled by the main thread between rounds; read by every
  /// recording thread.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const char* name, double start_us, double end_us,
              uint64_t key = 0, double arg = 0.0);

  /// Every span recorded so far, all threads. Call only while no thread
  /// is recording.
  std::vector<Span> Collect() const;

  /// Writes the collected spans as Chrome trace-event JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Buffer {
    int tid = 0;
    std::vector<Span> spans;
  };
  Buffer* ThisThread();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  // guards buffers_ (registration, Collect)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t key = 0, double arg = 0.0)
      : name_(name), key_(key), arg_(arg), start_us_(NowUs()) {}
  ~ScopedSpan() {
    Tracer::Get().Record(name_, start_us_, NowUs(), key_, arg_);
  }

 private:
  const char* name_;
  uint64_t key_;
  double arg_;
  double start_us_;
};

/// Phase log of the main thread, kept in every run (traced or not):
/// set-up, measured rounds and checks. The traced run requires these
/// phases to cover at least 90% of the wall time read from a separate
/// clock (process start to result).
class PhaseLog {
 public:
  void Add(const char* name, double start_us, double end_us);
  /// Union length of all phases, µs.
  double CoveredUs() const;

 private:
  std::vector<Span> phases_;
};

/// Correctness checks with a built-in self-test: every check is run on
/// the real data and once more on a deliberately corrupted copy, and it
/// holds only if the first passes and the second fails. A check that
/// cannot fail therefore never counts as passed.
class Checks {
 public:
  /// `check(corrupt)` evaluates the check on the real data
  /// (corrupt == false) or on the corrupted copy (corrupt == true).
  void Expect(const std::string& name,
              const std::function<bool(bool corrupt)>& check);
  /// A plain failure (e.g. an operation that threw).
  void Fail(const std::string& what);
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the run's own files.
  std::string out_dir;
  // Reference-row switches (README); the workloads use the defaults.
  int threads = kThreads;        // rollout-engine threads (train_*)
  bool shm = false;              // shm:// lanes instead of TCP (serve_tcp)
  bool double_precision = false;  // double path instead of float32 plan
};

/// Workload entry points. Each returns false in `checks` on any failed
/// correctness check.
Result RunTrainLts(const RunOptions& options, PhaseLog* phases,
                   Checks* checks);
Result RunTrainDpr(const RunOptions& options, PhaseLog* phases,
                   Checks* checks);
Result RunServeTcp(const RunOptions& options, PhaseLog* phases,
                   Checks* checks);

/// Per-layer metric names, identical for every workload (a layer a
/// workload does not exercise reports 0).
const std::vector<std::pair<std::string, std::string>>& PerLayerSchema();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
