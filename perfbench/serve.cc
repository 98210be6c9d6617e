// The serving workload: a closed-loop user population
// (load::PopulationDriver, 4 client threads, Zipf-skewed users, session
// churn with abandoned sessions) drives Act/EndSession through a pool
// of 4 wire-v3 connections over loopback TCP into a
// transport::PolicyServer, which fronts a 2-shard serve::ServeRouter
// serving a checkpoint that was saved, loaded back and frozen to the
// float32 inference plan.
//
// A run attempts whole rounds: one PopulationDriver run with the same
// seed and configuration each. Every request and reply is recorded on
// the client side so the checks can replay each user's stream serially.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <unistd.h>

#include "common.h"
#include "core/context_agent.h"
#include "envs/lts_env.h"
#include "infer/plan.h"
#include "load/client_pool.h"
#include "load/population_driver.h"
#include "obs/trace.h"
#include "sadae/sadae.h"
#include "serve/checkpoint.h"
#include "serve/inference_server.h"
#include "serve/serve_router.h"
#include "transport/policy_server.h"

namespace perfbench {
namespace {

using namespace sim2rec;

constexpr int kObsDim = envs::kLtsObsDim;
constexpr int kShards = 2;
constexpr int kConnections = 4;
// Closed-loop population, per round.
constexpr int kTicks = 400;
constexpr int kDrainTicks = 40;
constexpr double kArrivalsPerTick = 6.0;
// Float32 plan vs double ContextAgent::ServeStep (as bench/micro_serve).
constexpr double kFloatTolerance = 5e-3;
constexpr int kToleranceUsers = 32;

/// One client-side call as the population driver issued it.
struct Event {
  uint64_t seq = 0;  // global issue order (a user's calls never overlap)
  uint64_t user = 0;
  uint64_t key = 0;  // (round, trace id): matches the server-side span
  bool end_session = false;
  double start_us = 0.0, end_us = 0.0;
  std::array<double, kObsDim> obs{};
  double action = 0.0;
  double value = 0.0;
  bool clamped = false;
};

uint64_t RequestKey(uint64_t round) {
  return (round << 58) ^ obs::CurrentTraceId();
}

/// Client-side decorator between the driver and the connection pool:
/// reads the benchmark's own clock around every call and records the
/// request and reply. Per-thread buffers; no lock on the call path.
class RecordingService : public serve::PolicyService {
 public:
  explicit RecordingService(serve::PolicyService* inner) : inner_(inner) {}

  void set_round(uint64_t round) { round_ = round; }

  serve::ServeReply Act(uint64_t user_id, const nn::Tensor& obs) override {
    Event event;
    event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    event.user = user_id;
    event.key = RequestKey(round_);
    std::copy(obs.data(), obs.data() + kObsDim, event.obs.begin());
    event.start_us = NowUs();
    serve::ServeReply reply;
    try {
      reply = inner_->Act(user_id, obs);
    } catch (...) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
    event.end_us = NowUs();
    event.action = reply.action(0, 0);
    event.value = reply.value;
    event.clamped = reply.exec_clamped;
    Buffer()->push_back(event);
    return reply;
  }

  void EndSession(uint64_t user_id) override {
    Event event;
    event.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    event.user = user_id;
    event.end_session = true;
    event.start_us = NowUs();
    try {
      inner_->EndSession(user_id);
    } catch (...) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      throw;
    }
    event.end_us = NowUs();
    Buffer()->push_back(event);
  }

  /// Moves out everything recorded since the last call, in issue order.
  /// Call only between driver runs.
  std::vector<Event> Drain() {
    std::vector<Event> all;
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& buffer : buffers_) {
      all.insert(all.end(), buffer->begin(), buffer->end());
      buffer->clear();
    }
    std::sort(all.begin(), all.end(),
              [](const Event& a, const Event& b) { return a.seq < b.seq; });
    return all;
  }
  int64_t failed() const { return failed_.load(); }

 private:
  std::vector<Event>* Buffer() {
    thread_local std::map<const RecordingService*, std::vector<Event>*>
        mine;
    std::vector<Event>*& buffer = mine[this];
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Event>>());
      buffer = buffers_.back().get();
      buffer->reserve(1 << 16);
    }
    return buffer;
  }

  serve::PolicyService* inner_;
  uint64_t round_ = 0;
  std::atomic<uint64_t> seq_{0};
  std::atomic<int64_t> failed_{0};
  std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Event>>> buffers_;
};

/// Server-side decorator in front of the router (traced run only):
/// spans the time spent inside the router's Act, keyed by the request's
/// trace id, which the server installs from the wire frame. Every 64th
/// request it also samples the shards' queue depth from stats().
class TimedService : public serve::PolicyService {
 public:
  explicit TimedService(serve::ServeRouter* inner) : inner_(inner) {}
  void set_round(uint64_t round) { round_ = round; }
  int64_t queue_depth_max() const { return queue_depth_max_.load(); }

  serve::ServeReply Act(uint64_t user_id, const nn::Tensor& obs) override {
    if (Tracer::Get().enabled() &&
        (calls_.fetch_add(1, std::memory_order_relaxed) & 63) == 0) {
      int64_t depth = 0;
      for (const auto& [id, stats] : inner_->ShardStats()) {
        depth += stats.queue_depth;
      }
      int64_t seen = queue_depth_max_.load();
      while (depth > seen && !queue_depth_max_.compare_exchange_weak(seen,
                                                                     depth)) {
      }
    }
    ScopedSpan span("service.act", RequestKey(round_));
    return inner_->Act(user_id, obs);
  }
  void EndSession(uint64_t user_id) override {
    ScopedSpan span("service.end_session");
    inner_->EndSession(user_id);
  }

 private:
  serve::ServeRouter* inner_;
  std::atomic<uint64_t> round_{0};
  std::atomic<uint64_t> calls_{0};
  std::atomic<int64_t> queue_depth_max_{0};
};

/// The serving-size Sim2Rec head: LSTM-64 extractor, 128x128 policy and
/// value heads, SADAE latent-8 encoder (as bench/micro_serve's
/// precision table), with observation statistics from seeded data.
std::unique_ptr<serve::LoadedPolicy> BuildAndReloadPolicy(
    uint64_t seed, const std::string& dir) {
  core::ContextAgentConfig config;
  config.obs_dim = kObsDim;
  config.action_dim = 1;
  config.lstm_hidden = 64;
  config.f_hidden = {128};
  config.f_out = 16;
  config.policy_hidden = {128, 128};
  config.value_hidden = {128, 128};
  config.action_bias = {0.5};
  sadae::SadaeConfig sadae_config;
  sadae_config.state_dim = kObsDim;
  sadae_config.latent_dim = 8;
  sadae_config.encoder_hidden = {128, 128};
  Rng rng(seed);
  sadae::Sadae sadae_model(sadae_config, rng);
  core::ContextAgent agent(config, &sadae_model, rng);
  agent.normalizer()->Update(
      nn::Tensor::Randn(256, kObsDim, rng, 0.0, 1.0));
  serve::CheckpointMetadata metadata;
  metadata.variant = "Sim2Rec";
  metadata.seed = seed;
  if (!serve::SaveCheckpoint(dir, agent, metadata)) return nullptr;
  return serve::LoadCheckpoint(dir);
}

/// `plan` null selects the double-precision path (reference row).
serve::InferenceServerConfig ShardConfig(
    std::shared_ptr<const infer::InferencePlan> plan, bool micro_batching) {
  serve::InferenceServerConfig config;
  config.micro_batching = micro_batching;
  config.max_batch_size = 16;
  config.max_queue_delay_us = 200;
  config.action_low = {0.0};
  config.action_high = {1.0};
  config.precision = plan != nullptr ? serve::Precision::kFloat32
                                      : serve::Precision::kDouble;
  config.plan = std::move(plan);
  // No eviction and no expiry: which session an LRU cap evicts depends
  // on how the client threads interleave, and the serial replay check
  // needs every user's state to depend on that user's stream alone.
  config.sessions.max_bytes = size_t{1} << 30;
  config.sessions.ttl_ms = 0;
  return config;
}

load::PopulationDriverConfig DriverConfig(uint64_t seed) {
  load::PopulationDriverConfig config;
  config.seed = seed;
  config.ticks = kTicks;
  config.drain_ticks = kDrainTicks;
  config.arrival.base_rate = kArrivalsPerTick;
  config.zipf_s = 1.05;
  config.user_space = uint64_t{1} << 20;
  config.min_steps = 2;
  config.max_steps = 8;
  config.max_think_ticks = 2;
  config.abandon_prob = 0.25;
  config.obs_dim = kObsDim;
  config.action_dim = 1;
  config.num_threads = kThreads;
  config.record_timeline = false;
  return config;
}

bool Bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Per-user stream checks, fed one round of recorded calls at a time
/// (so the recording never outgrows one round). Each check keeps two
/// verdicts: whether the real replies pass, and whether a deliberately
/// corrupted copy of them was caught.
class StreamChecker {
 public:
  StreamChecker(const serve::LoadedPolicy& policy,
                std::shared_ptr<const infer::InferencePlan> plan,
                double low, double high)
      : agent_(*policy.agent),
        replay_(policy.agent.get(), ShardConfig(std::move(plan),
                                                /*micro_batching=*/false)),
        low_(low), high_(high) {}

  void Round(const std::vector<Event>& events) {
    nn::Tensor obs(1, kObsDim);
    bool probe = true;  // the round's first Act also feeds the self-test
    for (const Event& event : events) {
      if (event.end_session) {
        replay_.EndSession(event.user);
        reference_states_.erase(event.user);
        continue;
      }
      ++acts_;
      std::copy(event.obs.begin(), event.obs.end(), obs.data());

      // Every action inside the F_exec box; corrupted: pushed outside.
      box_ok_ &= InBox(event.action);
      if (probe) box_caught_ &= !InBox(high_ + 0.5);

      // Serial, unbatched replay on the same plan: bitwise equal.
      // Corrupted: one flipped bit in the recorded action.
      const serve::ServeReply reply = replay_.Act(event.user, obs);
      const double replayed = reply.action(0, 0);
      replay_ok_ &= Bits(event.action, replayed) &&
                    Bits(event.value, reply.value) &&
                    event.clamped == reply.exec_clamped;
      if (probe) {
        uint64_t bits;
        std::memcpy(&bits, &event.action, sizeof bits);
        bits ^= 1;
        double flipped;
        std::memcpy(&flipped, &bits, sizeof bits);
        replay_caught_ &= !Bits(flipped, replayed);
      }
      probe = false;

      // A sample of users against double ContextAgent::ServeStep.
      // Corrupted: the reply moved by 0.1.
      auto it = reference_states_.find(event.user);
      if (it == reference_states_.end()) {
        if (sampled_.size() >= kToleranceUsers &&
            sampled_.count(event.user) == 0) {
          continue;
        }
        sampled_.insert(event.user);
        it = reference_states_.emplace(event.user,
                                       agent_.InitialServeBatch(1)).first;
      }
      const double reference = std::clamp(
          agent_.ServeStep(obs, &it->second).actions(0, 0), low_, high_);
      tolerance_ok_ &= std::fabs(event.action - reference) <= kFloatTolerance;
      if (tolerance_compared_++ == 0) {
        tolerance_caught_ =
            !(std::fabs(event.action + 0.1 - reference) <= kFloatTolerance);
      }
    }
  }

  void Report(Checks* checks) const {
    checks->Expect("every action inside the F_exec box", [&](bool corrupt) {
      return corrupt ? !box_caught_ : box_ok_ && acts_ > 0;
    });
    checks->Expect("TCP replies = serial in-process replay, bitwise",
                   [&](bool corrupt) {
                     return corrupt ? !replay_caught_ : replay_ok_ && acts_ > 0;
                   });
    checks->Expect("float32 replies within 5e-3 of double ServeStep",
                   [&](bool corrupt) {
                     return corrupt ? !tolerance_caught_
                                    : tolerance_ok_ && tolerance_compared_ > 0;
                   });
    std::fprintf(stderr,
                 "replayed %lld Act calls; double-path sample: %zu users, "
                 "%lld replies\n",
                 static_cast<long long>(acts_), sampled_.size(),
                 static_cast<long long>(tolerance_compared_));
  }
  int64_t acts() const { return acts_; }

 private:
  bool InBox(double action) const {
    return action >= low_ && action <= high_;
  }

  const core::ContextAgent& agent_;
  serve::InferenceServer replay_;
  double low_, high_;
  std::map<uint64_t, core::ContextAgent::ServeBatch> reference_states_;
  std::set<uint64_t> sampled_;
  int64_t acts_ = 0;
  int64_t tolerance_compared_ = 0;
  bool box_ok_ = true, box_caught_ = true;
  bool replay_ok_ = true, replay_caught_ = true;
  bool tolerance_ok_ = true, tolerance_caught_ = false;
};

}  // namespace

Result RunServeTcp(const RunOptions& options, PhaseLog* phases,
                   Checks* checks) {
  Result result;
  // --- Set-up: build, save, load back, freeze, serve, connect.
  const std::string dir =
      options.out_dir + "/ckpt-" + std::to_string(::getpid());
  std::unique_ptr<serve::LoadedPolicy> policy =
      BuildAndReloadPolicy(options.seed, dir);
  std::filesystem::remove_all(dir);
  if (policy == nullptr) {
    checks->Fail("checkpoint save/load round trip");
    return result;
  }
  std::shared_ptr<const infer::InferencePlan> frozen =
      serve::FreezePlan(*policy);
  if (frozen == nullptr) {
    checks->Fail("freeze to the float32 plan");
    return result;
  }
  const std::shared_ptr<const infer::InferencePlan> plan =
      options.double_precision ? nullptr : frozen;
  serve::ServeRouterConfig router_config;
  router_config.shard = ShardConfig(plan, /*micro_batching=*/true);
  serve::ServeRouter router(policy->agent.get(), router_config, kShards);
  TimedService timed(&router);
  transport::PolicyServerConfig server_config;
  server_config.num_workers = kConnections + 1;
  server_config.dispatch_threads = kThreads;
  const std::string shm_name = "perfbench-" + std::to_string(::getpid());
  if (options.shm) {
    server_config.shm_lanes = kConnections;
    server_config.shm_name = shm_name;
  }
  transport::PolicyServer server(
      options.trace ? static_cast<serve::PolicyService*>(&timed)
                    : static_cast<serve::PolicyService*>(&router),
      server_config);
  if (!server.Start()) {
    checks->Fail("start the loopback PolicyServer");
    return result;
  }
  load::ClientPoolConfig pool_config;
  pool_config.port = server.port();
  pool_config.size = kConnections;
  if (options.shm) pool_config.endpoint = "shm://" + shm_name;
  load::ClientPool pool(pool_config);
  for (size_t i = 0; i < pool.size(); ++i) {
    if (pool.client(i)->Ping() != transport::TransportStatus::kOk) {
      checks->Fail("connect to the PolicyServer");
      return result;
    }
  }
  RecordingService recorder(&pool);
  const double setup_end = NowUs();
  phases->Add("setup", g_process_start_us, setup_end);

  const double lo = router_config.shard.action_low[0] -
                    router_config.shard.exec_tolerance;
  const double hi = router_config.shard.action_high[0] +
                    router_config.shard.exec_tolerance;
  StreamChecker stream(*policy, plan, lo, hi);

  // --- Measured rounds; the traced run alternates untraced and traced
  // rounds (untraced first), so the tracing overhead is measured under
  // the same host conditions. The window counts round time only; each
  // round's stream is checked right after it.
  std::vector<load::PopulationReport> reports;
  // Per untraced round: Act/s, and the exact p50 and p99 of its client
  // latencies; the metrics read them at the run's fast decile of rounds
  // (kQuietQuantile), so rounds that meet host contention do not move
  // them.
  std::vector<double> round_rates, round_p50_us, round_p99_us;
  std::vector<double> traced_round_p50_us;
  size_t latency_samples = 0, traced_samples = 0;
  std::vector<std::pair<double, double>> ticks;  // traced tick windows
  struct TracedAct {
    uint64_t key;
    double start_us, end_us;
  };
  std::vector<TracedAct> traced_acts;
  double measured_us = 0.0;
  // The process keeps growing by about 0.5 MB per second of rounds, so
  // a peak read at the end would follow how many rounds the host's speed
  // allowed; it is read after the first two rounds, the same work in
  // every run.
  double peak_rss_mb = 0.0;
  while (reports.size() < 2 || measured_us < options.seconds * 1e6) {
    const uint64_t round = reports.size();
    const bool traced = options.trace && round % 2 == 1;
    recorder.set_round(round);
    timed.set_round(round);
    load::PopulationDriverConfig config = DriverConfig(options.seed);
    double tick_start = 0.0;
    if (traced) {
      config.tick_hook = [&](int) {
        const double now = NowUs();
        ticks.emplace_back(tick_start, now);
        tick_start = now;
      };
    }
    Tracer::Get().set_enabled(traced);
    load::PopulationDriver driver(&recorder, config);
    const double start = NowUs();
    tick_start = start;
    reports.push_back(driver.Run());
    const double elapsed_us = NowUs() - start;
    Tracer::Get().set_enabled(false);
    measured_us += elapsed_us;
    phases->Add("round", start, start + elapsed_us);

    const double check_start = NowUs();
    const std::vector<Event> events = recorder.Drain();
    std::vector<double> round_us;
    for (const Event& event : events) {
      if (event.end_session) continue;
      round_us.push_back(event.end_us - event.start_us);
      if (traced) {
        traced_acts.push_back({event.key, event.start_us, event.end_us});
      }
    }
    if (traced) {
      traced_round_p50_us.push_back(Quantile(round_us, 0.5));
      traced_samples += round_us.size();
    } else {
      round_rates.push_back(round_us.size() / (elapsed_us * 1e-6));
      round_p50_us.push_back(Quantile(round_us, 0.5));
      round_p99_us.push_back(Quantile(round_us, 0.99));
      latency_samples += round_us.size();
    }
    result.attempted += static_cast<int64_t>(events.size());
    stream.Round(events);
    phases->Add("checks", check_start, NowUs());
    if (reports.size() == 2) peak_rss_mb = PeakRssMb();
  }
  result.failed = recorder.failed();
  const double shutdown_start = NowUs();
  server.Shutdown();
  phases->Add("shutdown", shutdown_start, NowUs());

  // --- Checks.
  const double check_start = NowUs();
  checks->Expect("PopulationReport::Consistent()", [&](bool corrupt) {
    for (size_t r = 0; r < reports.size(); ++r) {
      load::PopulationReport report = reports[r];
      if (corrupt && r == 0) report.sessions_started += 1;
      if (!report.Consistent()) return false;
    }
    return true;
  });
  uint64_t client_ok = 0;
  for (const auto& report : reports) client_ok += report.requests_ok;
  int64_t shard_requests = 0;
  for (const auto& [id, stats] : router.ShardStats()) {
    shard_requests += stats.requests;
  }
  checks->Expect("client successes = sum of shard requests",
                 [&](bool corrupt) {
                   const int64_t shards = shard_requests + (corrupt ? 1 : 0);
                   return static_cast<int64_t>(client_ok) == shards &&
                          stream.acts() == shards;
                 });
  stream.Report(checks);
  phases->Add("checks", check_start, NowUs());

  result.end_to_end.push_back(
      {"setup_s", (setup_end - g_process_start_us) * 1e-6, "s"});
  const double rate = Quantile(round_rates, 1.0 - kQuietQuantile);
  const double p50_us = Quantile(round_p50_us, kQuietQuantile);
  const double p99_us = Quantile(round_p99_us, kQuietQuantile);
  result.end_to_end.push_back({"samples_per_s", rate, "1/s"});
  result.end_to_end.push_back({"op_us", p50_us, "us"});
  result.end_to_end.push_back({"op_tail_us", p99_us, "us"});
  result.end_to_end.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  std::fprintf(stderr,
               "serve: %zu rounds, %lld calls; Act latency over %zu rounds "
               "of %zu samples in all, fast decile of rounds (median): "
               "p50 %.2f us (%.2f), p99 %.2f us (%.2f); %.0f Act/s (%.0f)\n",
               reports.size(), static_cast<long long>(result.attempted),
               round_p50_us.size(), latency_samples, p50_us,
               Median(round_p50_us), p99_us, Median(round_p99_us), rate,
               Median(round_rates));

  if (options.trace) {
    const double layers_start = NowUs();
    const std::vector<Span> spans = Tracer::Get().Collect();
    std::map<uint64_t, double> service_us;
    std::vector<double> service;
    for (const Span& span : spans) {
      if (std::strcmp(span.name, "service.act") == 0) {
        service_us[span.key] = span.us();
        service.push_back(span.us());
      }
    }
    std::vector<double> overhead;
    std::vector<std::pair<double, double>> acts;
    for (const TracedAct& act : traced_acts) {
      acts.emplace_back(act.start_us, act.end_us);
      auto it = service_us.find(act.key);
      if (it != service_us.end()) {
        overhead.push_back(act.end_us - act.start_us - it->second);
      }
    }
    // Generator time: per tick, the tick's wall time outside the window
    // in which its requests were in flight.
    std::sort(acts.begin(), acts.end());
    double driver_us = 0.0;
    size_t next = 0;
    for (const auto& [begin, end] : ticks) {
      double first = end, last = begin;
      while (next < acts.size() && acts[next].first < end) {
        first = std::min(first, acts[next].first);
        last = std::max(last, acts[next].second);
        ++next;
      }
      driver_us += (end - begin) - std::max(0.0, last - first);
    }
    // Shard counters over the whole run (every round serves the same
    // stream, traced or not).
    serve::InferenceServerStats totals;
    double occupancy_rows = 0.0;
    for (const auto& [id, stats] : router.ShardStats()) {
      totals.requests += stats.requests;
      totals.batches += stats.batches;
      occupancy_rows += stats.mean_batch_occupancy * stats.batches;
      totals.sessions.hits += stats.sessions.hits;
      totals.sessions.misses += stats.sessions.misses;
      totals.sessions.evictions += stats.sessions.evictions;
    }
    const double kreq = std::max(1.0, totals.requests / 1000.0);

    // The frozen plan alone, at batch 1 and 16.
    auto plan_forward_us = [&](int rows) {
      infer::Workspace workspace = frozen->CreateWorkspace(rows);
      core::ContextAgent::ServeBatch state =
          policy->agent->InitialServeBatch(rows);
      Rng rng(options.seed);
      const nn::Tensor obs = nn::Tensor::Randn(rows, kObsDim, rng);
      std::vector<double> times;
      for (int i = 0; i < 2000; ++i) {
        const double start = NowUs();
        frozen->ServeStep(obs, &state, &workspace);
        times.push_back(NowUs() - start);
      }
      return Median(times);
    };

    auto add = [&](const char* name, double value) {
      result.per_layer.push_back({name, value, ""});
    };
    add("serve.service_us_p50", Quantile(service, 0.5));
    add("serve.service_us_p99", Quantile(service, 0.99));
    add("transport.overhead_us_p50", Quantile(overhead, 0.5));
    add("transport.overhead_us_p99", Quantile(overhead, 0.99));
    add("serve.batches_per_kreq", totals.batches / kreq);
    add("serve.batch_occupancy_mean",
        totals.batches > 0 ? occupancy_rows / totals.batches : 0.0);
    add("serve.queue_depth_max", timed.queue_depth_max());
    add("serve.session_hits_per_kreq", totals.sessions.hits / kreq);
    add("serve.session_misses_per_kreq", totals.sessions.misses / kreq);
    add("serve.session_evictions", totals.sessions.evictions);
    add("infer.plan_forward_us_b1", plan_forward_us(1));
    add("infer.plan_forward_us_b16", plan_forward_us(16));
    add("load.driver_us", ticks.empty() ? 0.0 : driver_us / ticks.size());
    add("op_samples", static_cast<double>(traced_samples));
    add("trace.overhead_pct",
        100.0 * (Median(traced_round_p50_us) / Median(round_p50_us) - 1.0));
    std::fprintf(stderr,
                 "traced: %zu service spans, %zu matched overheads, %zu "
                 "ticks\n",
                 service.size(), overhead.size(), ticks.size());
    phases->Add("layers", layers_start, NowUs());
  }
  return result;
}

}  // namespace perfbench
