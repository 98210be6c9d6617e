// The two training workloads: Sim2Rec (SADAE + LSTM extractor + PPO,
// Algorithm 1) trained through the parallel rollout engine, on the LTS1
// simulator set (train_lts) and inside the learned DPR simulators
// (train_dpr).
//
// A run attempts whole rounds. A round restores the agent, SADAE and
// normalizer to the state left by set-up and trains for a fixed
// iteration budget with a fixed seed, so every round repeats the same
// arithmetic: rounds must agree bitwise, which is also how the traced
// round (decorated agent and envs) is shown to compute exactly what the
// untraced one does.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "baselines/factories.h"
#include "common.h"
#include "core/context_agent.h"
#include "core/sim2rec_trainer.h"
#include "data/behavior_policy.h"
#include "envs/dpr_features.h"
#include "envs/lts_env.h"
#include "experiments/dpr_pipeline.h"
#include "experiments/lts_experiment.h"
#include "sadae/sadae_trainer.h"
#include "sim/sim_env.h"

namespace perfbench {
namespace {

using namespace sim2rec;

// ---------------------------------------------------------------------
// Decorators: the traced round's only instrumentation. They forward
// every call unchanged and record a span around it.

/// Where the rollout engine is: which rollout and which lock-step. The
/// agent decorator advances it on the calling thread between the
/// engine's fork/join batches, so env decorators on worker threads read
/// it race-free.
struct RolloutClock {
  uint64_t rollout = 0;
  uint64_t step = 0;
  bool in_eval = false;
  double rollout_start_us = 0.0;
};

uint64_t StepKey(const RolloutClock& clock) {
  return (clock.rollout << 16) | clock.step;
}

class TimedEnv : public envs::GroupBatchEnv {
 public:
  TimedEnv(envs::GroupBatchEnv* inner, const RolloutClock* clock)
      : inner_(inner), clock_(clock) {}

  envs::GroupBatchEnv* inner() const { return inner_; }

  int num_users() const override { return inner_->num_users(); }
  int obs_dim() const override { return inner_->obs_dim(); }
  int action_dim() const override { return inner_->action_dim(); }
  int horizon() const override { return inner_->horizon(); }
  std::vector<double> action_low() const override {
    return inner_->action_low();
  }
  std::vector<double> action_high() const override {
    return inner_->action_high();
  }

  nn::Tensor Reset(Rng& rng) override {
    ScopedSpan span("env.reset", StepKey(*clock_));
    return inner_->Reset(rng);
  }
  envs::StepResult Step(const nn::Tensor& actions, Rng& rng) override {
    ScopedSpan span("env.step", StepKey(*clock_));
    return inner_->Step(actions, rng);
  }

 private:
  envs::GroupBatchEnv* inner_;
  const RolloutClock* clock_;
};

envs::GroupBatchEnv* Unwrap(envs::GroupBatchEnv* env) {
  auto* timed = dynamic_cast<TimedEnv*>(env);
  return timed != nullptr ? timed->inner() : env;
}

class TimedAgent : public rl::Agent {
 public:
  TimedAgent(rl::Agent* inner, RolloutClock* clock)
      : inner_(inner), clock_(clock) {}

  int obs_dim() const override { return inner_->obs_dim(); }
  int action_dim() const override { return inner_->action_dim(); }

  void BeginEpisode(int n) override {
    if (!clock_->in_eval) {
      static uint64_t rollouts = 0;  // unique across rounds: span keys
      clock_->rollout = ++rollouts;
      clock_->step = 0;
      clock_->rollout_start_us = NowUs();
    }
    inner_->BeginEpisode(n);
  }
  StepOutput Step(const nn::Tensor& obs, Rng& rng,
                  bool deterministic) override {
    StepOutput out;
    {
      ScopedSpan span("agent.step", StepKey(*clock_), obs.rows());
      out = inner_->Step(obs, rng, deterministic);
    }
    if (!clock_->in_eval) ++clock_->step;
    return out;
  }
  std::vector<double> Values(const nn::Tensor& obs) override {
    std::vector<double> values;
    {
      ScopedSpan span("agent.step", StepKey(*clock_), obs.rows());
      values = inner_->Values(obs);
    }
    // The engine's last call of a rollout: close the rollout span.
    if (!clock_->in_eval) {
      Tracer::Get().Record("rollout", clock_->rollout_start_us, NowUs(),
                           clock_->rollout);
    }
    return values;
  }
  SequenceForward ForwardRollout(nn::Tape& tape,
                                 const rl::Rollout& rollout) override {
    ScopedSpan span("forward_rollout");
    return inner_->ForwardRollout(tape, rollout);
  }
  std::vector<nn::Parameter*> TrainableParameters() override {
    return inner_->TrainableParameters();
  }

 private:
  rl::Agent* inner_;
  RolloutClock* clock_;
};

/// Iteration boundaries (always on: they give the per-iteration
/// latencies of the end-to-end metrics).
class IterationTimer : public core::TrainingObserver {
 public:
  void Start() { last_us_ = NowUs(); }
  void OnIteration(const core::IterationLog& log) override {
    const double now = NowUs();
    iteration_us.push_back(now - last_us_);
    Tracer::Get().Record("iteration", last_us_, now, log.iteration);
    logs.push_back(log);
    last_us_ = now;
  }
  std::vector<double> iteration_us;
  std::vector<core::IterationLog> logs;

 private:
  double last_us_ = 0.0;
};

// ---------------------------------------------------------------------
// The generic training workload: what differs between LTS and DPR is
// set up into a TrainSpec; rounds, checks and metrics are shared.

struct Snapshot {
  std::vector<double> agent_params;
  std::vector<double> sadae_params;
  int64_t norm_count = 0;
  nn::Tensor norm_mean, norm_m2;
};

struct TrainSpec {
  core::ContextAgent* agent = nullptr;
  sadae::Sadae* sadae = nullptr;
  const std::vector<nn::Tensor>* sadae_sets = nullptr;
  sadae::SadaeTrainConfig sadae_train;
  std::vector<envs::GroupBatchEnv*> envs;
  core::TrainLoopConfig loop;
  std::function<void(envs::GroupBatchEnv*, Rng&)> on_env_selected;
  /// Deployment probe; receives the (possibly decorated) agent.
  std::function<double(rl::Agent&, Rng&)> evaluate;
  int64_t samples_per_iteration = 0;
  Snapshot snapshot;
};

Snapshot TakeSnapshot(core::ContextAgent* agent, sadae::Sadae* sadae) {
  Snapshot snap;
  snap.agent_params = agent->FlatParams();
  if (sadae != nullptr) snap.sadae_params = sadae->FlatParams();
  const rl::ObservationNormalizer* norm = agent->normalizer();
  if (norm != nullptr) {
    snap.norm_count = norm->count();
    snap.norm_mean = norm->mean();
    snap.norm_m2 = norm->m2();
  }
  return snap;
}

void Restore(const TrainSpec& spec) {
  spec.agent->SetFlatParams(spec.snapshot.agent_params);
  if (spec.sadae != nullptr) {
    spec.sadae->SetFlatParams(spec.snapshot.sadae_params);
  }
  if (spec.agent->normalizer() != nullptr) {
    spec.agent->normalizer()->RestoreStats(spec.snapshot.norm_count,
                                           spec.snapshot.norm_mean,
                                           spec.snapshot.norm_m2);
  }
}

std::vector<double> TrainedState(const TrainSpec& spec) {
  std::vector<double> state = spec.agent->FlatParams();
  if (spec.sadae != nullptr) {
    const std::vector<double> sadae = spec.sadae->FlatParams();
    state.insert(state.end(), sadae.begin(), sadae.end());
  }
  return state;
}

struct RoundResult {
  std::vector<double> iteration_us;
  double train_us = 0.0;
  std::vector<double> eval_returns;  // every evaluated iteration, in order
  double first_return = 0.0;         // deployed return at iteration 0
  double final_return = 0.0;         // after the whole budget
  std::vector<double> state;         // trained parameters
};

/// One training round from the set-up snapshot.
RoundResult RunRound(const TrainSpec& spec, bool traced, int parallelism,
                     int iterations, int eval_every) {
  Restore(spec);
  std::unique_ptr<sadae::SadaeTrainer> sadae_trainer;
  if (spec.sadae != nullptr) {
    sadae_trainer =
        std::make_unique<sadae::SadaeTrainer>(spec.sadae, spec.sadae_train);
  }

  RolloutClock clock;
  TimedAgent timed_agent(spec.agent, &clock);
  std::vector<std::unique_ptr<TimedEnv>> timed_envs;
  std::vector<envs::GroupBatchEnv*> envs = spec.envs;
  if (traced) {
    for (auto*& env : envs) {
      timed_envs.push_back(std::make_unique<TimedEnv>(env, &clock));
      env = timed_envs.back().get();
    }
  }
  rl::Agent* agent = traced ? static_cast<rl::Agent*>(&timed_agent)
                            : static_cast<rl::Agent*>(spec.agent);

  core::TrainLoopConfig loop = spec.loop;
  loop.iterations = iterations;
  loop.eval_every = eval_every;
  loop.parallelism = parallelism;
  core::ZeroShotTrainer trainer(agent, envs, loop, sadae_trainer.get(),
                                spec.sadae_sets);
  if (spec.on_env_selected) {
    trainer.set_on_env_selected(
        [&spec](envs::GroupBatchEnv* env, Rng& rng) {
          spec.on_env_selected(Unwrap(env), rng);
        });
  }
  trainer.set_evaluator([&spec, &clock](rl::Agent& eval_agent, Rng& rng) {
    clock.in_eval = true;
    ScopedSpan span("eval");
    const double value = spec.evaluate(eval_agent, rng);
    clock.in_eval = false;
    return value;
  });
  IterationTimer timer;
  trainer.set_observer(&timer);

  timer.Start();
  const double start = NowUs();
  trainer.Train();
  RoundResult result;
  result.train_us = NowUs() - start;
  result.iteration_us = timer.iteration_us;
  for (const auto& log : timer.logs) {
    if (log.has_eval()) result.eval_returns.push_back(log.eval_return);
  }
  if (!result.eval_returns.empty()) {
    result.first_return = result.eval_returns.front();
    result.final_return = result.eval_returns.back();
  }
  result.state = TrainedState(spec);
  return result;
}

/// Per-layer breakdown of the traced rounds, from the recorded spans.
/// Every figure is per training iteration except train.iteration_us
/// (the median iteration).
void AddTrainLayers(const std::vector<Span>& spans, Result* result) {
  std::vector<double> iterations;
  double rollout_us = 0.0, forward_us = 0.0, forward_calls = 0.0;
  double eval_us = 0.0, agent_us = 0.0, agent_rows = 0.0;
  double env_us = 0.0, env_calls = 0.0;
  double agent_in_rollout_us = 0.0;
  // Critical path of the env work inside rollouts: per lock-step, the
  // slowest shard.
  std::map<uint64_t, double> env_step_max;
  std::vector<const Span*> evals;
  for (const Span& span : spans) {
    const std::string name = span.name;
    if (name == "iteration") {
      iterations.push_back(span.us());
    } else if (name == "rollout") {
      rollout_us += span.us();
    } else if (name == "forward_rollout") {
      forward_us += span.us();
      forward_calls += 1;
    } else if (name == "eval") {
      eval_us += span.us();
      evals.push_back(&span);
    } else if (name == "agent.step") {
      agent_us += span.us();
      agent_rows += span.arg;
    } else if (name == "env.step" || name == "env.reset") {
      if (name == "env.step") {
        env_us += span.us();
        env_calls += 1;
      }
      double& slot = env_step_max[span.key];
      slot = std::max(slot, span.us());
    }
  }
  // Agent calls inside a rollout are those not inside an eval span.
  for (const Span& span : spans) {
    if (std::string(span.name) != "agent.step") continue;
    bool in_eval = false;
    for (const Span* eval : evals) {
      if (span.start_us >= eval->start_us && span.end_us <= eval->end_us) {
        in_eval = true;
        break;
      }
    }
    if (!in_eval) agent_in_rollout_us += span.us();
  }
  double env_critical_us = 0.0;
  for (const auto& [key, us] : env_step_max) env_critical_us += us;

  const double n = std::max<double>(1.0, iterations.size());
  double iteration_total = 0.0;
  for (double us : iterations) iteration_total += us;
  auto set = [result](const char* name, double value) {
    result->per_layer.push_back({name, value, ""});
  };
  set("envs.step_us", env_us / n);
  set("envs.step_calls", env_calls / n);
  set("core.agent_step_us", agent_us / n);
  set("core.agent_step_rows", agent_rows / n);
  set("rl.rollout_wall_us", rollout_us / n);
  set("rl.rollout_wait_us",
      (rollout_us - agent_in_rollout_us - env_critical_us) / n);
  set("core.forward_rollout_us", forward_us / n);
  set("core.forward_rollout_calls", forward_calls / n);
  set("rl.update_rest_us",
      (iteration_total - rollout_us - forward_us - eval_us) / n);
  set("train.eval_us", eval_us / n);
  set("train.iteration_us", Median(iterations));
}

/// Rounds, checks and metrics shared by both training workloads.
/// `budget` is the iteration budget of one round; `margin` the gain the
/// deployed return must show over iteration 0 (negative = no gain
/// check, only finiteness).
Result RunTraining(const RunOptions& options, TrainSpec& spec, int budget,
                   double margin, PhaseLog* phases, Checks* checks) {
  Result result;
  const int64_t samples_per_round =
      spec.samples_per_iteration * static_cast<int64_t>(budget);

  // --- 1 thread vs kThreads: a short run from the same snapshot must
  // give the same parameters and eval returns, bit for bit. Run first,
  // it also warms the allocator and caches before anything is timed.
  const double warm_start = NowUs();
  const RoundResult serial = RunRound(spec, false, 1, 2, 1);
  const RoundResult parallel = RunRound(spec, false, kThreads, 2, 1);
  checks->Expect("1 vs 4 threads bitwise", [&](bool corrupt) {
    std::vector<double> state = parallel.state;
    if (corrupt) state[state.size() / 2] += 1e-9;
    return BitwiseEqual(serial.state, state) &&
           BitwiseEqual(serial.eval_returns, parallel.eval_returns);
  });
  phases->Add("checks", warm_start, NowUs());

  // --- Measured rounds. The traced run alternates untraced and traced
  // rounds (untraced first): the untraced ones are the reference for
  // bitwise transparency, and comparing the two kinds under the same
  // host conditions gives the tracing overhead.
  std::vector<RoundResult> rounds;
  std::vector<double> iteration_us_untraced, iteration_us_traced;
  std::vector<double> round_train_us;  // untraced
  const double measure_start = NowUs();
  const double window_us = options.seconds * 1e6;
  while (rounds.size() < 2 || NowUs() - measure_start < window_us) {
    const bool traced = options.trace && rounds.size() % 2 == 1;
    Tracer::Get().set_enabled(traced);
    const double start = NowUs();
    rounds.push_back(
        RunRound(spec, traced, options.threads, budget, budget));
    Tracer::Get().set_enabled(false);
    phases->Add("round", start, NowUs());
    std::vector<double>& into =
        traced ? iteration_us_traced : iteration_us_untraced;
    into.insert(into.end(), rounds.back().iteration_us.begin(),
                rounds.back().iteration_us.end());
    if (!traced) round_train_us.push_back(rounds.back().train_us);
    result.attempted += budget;
  }

  // --- Checks.
  const double check_start = NowUs();
  const RoundResult& first = rounds.front();
  checks->Expect(options.trace ? "traced rounds equal the untraced rounds"
                               : "rounds repeat bitwise",
                 [&](bool corrupt) {
                   for (size_t r = 1; r < rounds.size(); ++r) {
                     std::vector<double> returns = rounds[r].eval_returns;
                     if (corrupt && r == 1) {
                       returns.back() = std::nextafter(returns.back(), 1e300);
                     }
                     if (!BitwiseEqual(returns, first.eval_returns) ||
                         !BitwiseEqual(rounds[r].state, first.state)) {
                       return false;
                     }
                   }
                   return true;
                 });

  checks->Expect("final return finite", [&](bool corrupt) {
    const double value = corrupt ? std::nan("") : first.final_return;
    return std::isfinite(value) && std::isfinite(first.first_return);
  });
  if (margin >= 0.0) {
    char name[96];
    std::snprintf(name, sizeof(name), "deployed return gains >= %.1f", margin);
    checks->Expect(name, [&](bool corrupt) {
      const double final_return =
          corrupt ? first.first_return : first.final_return;
      return final_return - first.first_return >= margin;
    });
  }
  std::fprintf(stderr,
               "returns: iteration 0 %.4f -> final %.4f after %d iterations "
               "(%zu rounds)\n",
               first.first_return, first.final_return, budget,
               rounds.size());
  phases->Add("checks", check_start, NowUs());

  // --- End-to-end metrics over the untraced rounds, at the fast decile
  // (kQuietQuantile): of all iterations for the iteration time and the
  // rate, of the evaluating iterations for the tail. The first and last
  // iteration of a round also evaluate the deployed policy, which makes
  // them the slowest kind of iteration.
  std::vector<double> eval_iteration_us;
  for (size_t r = 0; r < rounds.size(); ++r) {
    if (options.trace && r % 2 == 1) continue;
    eval_iteration_us.push_back(rounds[r].iteration_us.front());
    eval_iteration_us.push_back(rounds[r].iteration_us.back());
  }
  const double op_us = Quantile(iteration_us_untraced, kQuietQuantile);
  const double tail_us = Quantile(eval_iteration_us, kQuietQuantile);
  const double rate =
      static_cast<double>(spec.samples_per_iteration) / (op_us * 1e-6);
  result.end_to_end.push_back({"samples_per_s", rate, "1/s"});
  result.end_to_end.push_back({"op_us", op_us, "us"});
  result.end_to_end.push_back({"op_tail_us", tail_us, "us"});
  std::fprintf(stderr,
               "iteration time over %zu iterations: p10 %.0f us, median "
               "%.0f us; %zu evaluating iterations: p10 %.0f us, "
               "median %.0f us; %.0f transitions/s at p10, %.0f over "
               "whole rounds (median)\n",
               iteration_us_untraced.size(), op_us,
               Median(iteration_us_untraced), eval_iteration_us.size(),
               tail_us, Median(eval_iteration_us), rate,
               static_cast<double>(samples_per_round) /
                   (Median(round_train_us) * 1e-6));

  if (options.trace) {
    const std::vector<Span> spans = Tracer::Get().Collect();
    AddTrainLayers(spans, &result);
    result.per_layer.push_back(
        {"trace.overhead_pct",
         100.0 * (Median(iteration_us_traced) /
                      Median(iteration_us_untraced) -
                  1.0),
         "%"});
    result.per_layer.push_back(
        {"op_samples", static_cast<double>(iteration_us_traced.size()),
         "count"});
  }
  return result;
}

}  // namespace

// ---------------------------------------------------------------------
// train_lts

Result RunTrainLts(const RunOptions& options, PhaseLog* phases,
                   Checks* checks) {
  // Inputs: the LTS1 simulator set (|omega_g| >= 2), 4 shards of 32
  // users per iteration, horizon 30, deployment target omega* = 0.
  constexpr int kUsers = 32;
  constexpr int kHorizon = 30;
  constexpr int kShards = 4;
  constexpr int kBudget = 12;
  // Twelve seeds gained +7.0 to +15.0 over iteration 0 (base ~136) after
  // these 12 iterations; +3 leaves room for seed noise, not for no gain.
  constexpr double kMargin = 3.0;

  Rng rng(options.seed);
  experiments::LtsExperimentConfig config;
  config.num_users = kUsers;
  config.horizon = kHorizon;
  config.sadae_pretrain_epochs = 30;

  auto make_env = [&](double omega) {
    envs::LtsConfig env_config;
    env_config.num_users = kUsers;
    env_config.horizon = kHorizon;
    env_config.omega_g = omega;
    env_config.user_seed = rng.NextU64();
    return std::make_unique<envs::LtsEnv>(env_config);
  };
  const std::vector<double> omegas = envs::LtsTaskOmegas(2);
  std::vector<std::unique_ptr<envs::LtsEnv>> owned;
  TrainSpec spec;
  for (double omega : omegas) {
    owned.push_back(make_env(omega));
    spec.envs.push_back(owned.back().get());
  }
  std::unique_ptr<envs::LtsEnv> target = make_env(0.0);

  sadae::SadaeConfig sadae_config;
  sadae_config.state_dim = envs::kLtsObsDim;
  sadae_config.latent_dim = config.sadae_latent;
  sadae_config.encoder_hidden = config.sadae_hidden;
  sadae_config.decoder_hidden = config.sadae_hidden;
  Rng sadae_rng = rng.Split(1);
  auto sadae_model = std::make_unique<sadae::Sadae>(sadae_config, sadae_rng);
  std::vector<nn::Tensor> sadae_sets =
      experiments::CollectLtsStateSets(omegas, config, sadae_rng);
  spec.sadae_train.learning_rate = 2e-3;
  {
    sadae::SadaeTrainer pretrainer(sadae_model.get(), spec.sadae_train);
    for (int epoch = 0; epoch < config.sadae_pretrain_epochs; ++epoch) {
      pretrainer.TrainEpoch(sadae_sets, sadae_rng);
    }
  }

  core::ContextAgentConfig agent_config = baselines::MakeAgentConfig(
      baselines::AgentVariant::kSim2Rec, envs::kLtsObsDim, 1);
  agent_config.lstm_hidden = config.lstm_hidden;
  agent_config.f_hidden = config.f_hidden;
  agent_config.f_out = config.f_out;
  agent_config.policy_hidden = config.policy_hidden;
  agent_config.value_hidden = config.value_hidden;
  agent_config.action_bias = {0.5};
  Rng agent_rng = rng.Split(2);
  core::ContextAgent agent(agent_config, sadae_model.get(), agent_rng);

  spec.agent = &agent;
  spec.sadae = sadae_model.get();
  spec.sadae_sets = &sadae_sets;
  spec.loop.ppo = config.ppo;
  spec.loop.ppo.target_kl = 0.0;  // fixed work per iteration (see README)
  spec.loop.sadae_steps_per_iteration = 1;
  spec.loop.rollout_shards = kShards;
  spec.loop.seed = rng.NextU64();
  envs::LtsEnv* target_env = target.get();
  spec.evaluate = [target_env](rl::Agent& eval_agent, Rng& eval_rng) {
    return rl::EvaluateAgentReturn(*target_env, eval_agent,
                                   /*episodes=*/2, eval_rng,
                                   /*deterministic=*/true);
  };
  spec.samples_per_iteration =
      static_cast<int64_t>(kShards) * kUsers * kHorizon;
  spec.snapshot = TakeSnapshot(&agent, sadae_model.get());

  const double setup_end = NowUs();
  phases->Add("setup", g_process_start_us, setup_end);
  Result result = RunTraining(options, spec, kBudget, kMargin, phases,
                              checks);
  result.end_to_end.insert(
      result.end_to_end.begin(),
      {"setup_s", (setup_end - g_process_start_us) * 1e-6, "s"});
  return result;
}

// ---------------------------------------------------------------------
// train_dpr

Result RunTrainDpr(const RunOptions& options, PhaseLog* phases,
                   Checks* checks) {
  constexpr int kShards = 4;
  constexpr int kBudget = 16;

  // Inputs: a DPR world of 5 cities x 24 drivers, 2 logged sessions per
  // city, a 6-member simulator ensemble (4 train / 2 held out), T_c = 5
  // with 24 rollout users per group; seed-derived throughout.
  experiments::DprPipelineConfig config;
  config.world.drivers_per_city = 24;
  config.sessions_per_city = 2;
  config.ensemble_size = 6;
  config.train_simulators = 4;
  config.sim_train.epochs = 12;
  config.sim_env.rollout_users = 24;
  config.seed = options.seed;
  const double build_start = NowUs();
  const experiments::DprPipeline pipeline =
      experiments::BuildDprPipeline(config);
  const double simset_build_s = (NowUs() - build_start) * 1e-6;

  experiments::DprTrainOptions train;
  train.sadae_pretrain_epochs = 8;
  Rng rng(options.seed ^ 0xd5f3u);

  TrainSpec spec;
  std::vector<std::unique_ptr<sim::SimGroupEnv>> owned;
  for (int g : pipeline.filtered_train.GroupIds()) {
    sim::SimEnvConfig env_config = pipeline.config.sim_env;
    env_config.cost_factor = pipeline.world->city(g).cost_factor;
    owned.push_back(std::make_unique<sim::SimGroupEnv>(
        &pipeline.filtered_train, g, &pipeline.ensemble, env_config));
    spec.envs.push_back(owned.back().get());
  }

  core::ContextAgentConfig agent_config = baselines::MakeAgentConfig(
      baselines::AgentVariant::kSim2Rec, envs::kDprObsDim,
      envs::kDprActionDim);
  agent_config.lstm_hidden = train.lstm_hidden;
  agent_config.f_hidden = train.f_hidden;
  agent_config.f_out = train.f_out;
  agent_config.policy_hidden = train.policy_hidden;
  agent_config.value_hidden = train.value_hidden;
  agent_config.init_log_std = -2.0;
  {
    // Center the initial policy on the logged behaviour policy's mean
    // action, as the DPR pipeline does.
    nn::Tensor inputs, targets;
    pipeline.filtered_train.FlattenForSimulator(&inputs, &targets);
    agent_config.action_bias.assign(envs::kDprActionDim, 0.0);
    for (int c = 0; c < envs::kDprActionDim; ++c) {
      double mean = 0.0;
      for (int r = 0; r < inputs.rows(); ++r) {
        mean += inputs(r, envs::kDprObsDim + c);
      }
      agent_config.action_bias[c] = mean / inputs.rows();
    }
  }

  sadae::SadaeConfig sadae_config;
  sadae_config.state_dim = envs::kDprContinuousObsDim;
  sadae_config.categorical_dim = envs::kDprTierCount;
  sadae_config.action_dim = envs::kDprActionDim;
  sadae_config.latent_dim = train.sadae_latent;
  sadae_config.encoder_hidden = train.sadae_hidden;
  sadae_config.decoder_hidden = train.sadae_hidden;
  Rng sadae_rng = rng.Split(3);
  auto sadae_model = std::make_unique<sadae::Sadae>(sadae_config, sadae_rng);
  spec.sadae_train.learning_rate = 1e-3;
  {
    sadae::SadaeTrainer pretrainer(sadae_model.get(), spec.sadae_train);
    for (int epoch = 0; epoch < train.sadae_pretrain_epochs; ++epoch) {
      pretrainer.TrainEpoch(pipeline.sadae_sets, sadae_rng);
    }
  }
  Rng agent_rng = rng.Split(4);
  core::ContextAgent agent(agent_config, sadae_model.get(), agent_rng);

  spec.agent = &agent;
  spec.sadae = sadae_model.get();
  spec.sadae_sets = &pipeline.sadae_sets;
  spec.loop.ppo = train.ppo;
  spec.loop.ppo.target_kl = 0.0;  // fixed work per iteration (see README)
  spec.loop.final_learning_rate = train.ppo.learning_rate * 0.05;
  spec.loop.sadae_steps_per_iteration = 1;
  spec.loop.rollout_shards = kShards;
  spec.loop.seed = rng.NextU64();
  const std::vector<int> sims = pipeline.train_sim_indices;
  spec.on_env_selected = [sims](envs::GroupBatchEnv* env, Rng& env_rng) {
    static_cast<sim::SimGroupEnv*>(env)->set_active_simulator(
        sims[env_rng.UniformInt(static_cast<int>(sims.size()))]);
  };
  // Table IV metric, averaged over the held-out simulators.
  const experiments::DprPipeline* p = &pipeline;
  spec.evaluate = [p](rl::Agent& eval_agent, Rng& eval_rng) {
    double total = 0.0;
    for (int sim_index : p->heldout_sim_indices) {
      total += experiments::EvaluateAgentOnSimulator(
          *p, p->test_data, sim_index, eval_agent, eval_rng,
          /*episodes_per_group=*/1);
    }
    return total / p->heldout_sim_indices.size();
  };
  spec.samples_per_iteration = static_cast<int64_t>(kShards) *
                               config.sim_env.rollout_users *
                               config.sim_env.truncated_horizon;
  spec.snapshot = TakeSnapshot(&agent, sadae_model.get());

  const double setup_end = NowUs();
  phases->Add("setup", g_process_start_us, setup_end);

  // The uncertainty penalty, recomputed outside the program: two copies
  // of one training env that differ only in alpha, stepped with the
  // same actions and seed.
  const double penalty_start = NowUs();
  {
    const int group = pipeline.filtered_train.GroupIds().front();
    sim::SimEnvConfig with = pipeline.config.sim_env;
    with.cost_factor = pipeline.world->city(group).cost_factor;
    sim::SimEnvConfig without = with;
    without.uncertainty_alpha = 0.0;
    sim::SimGroupEnv penalized(&pipeline.filtered_train, group,
                               &pipeline.ensemble, with);
    sim::SimGroupEnv plain(&pipeline.filtered_train, group,
                           &pipeline.ensemble, without);
    penalized.set_active_simulator(sims[0]);
    plain.set_active_simulator(sims[0]);
    Rng rng_a(options.seed + 7), rng_b(options.seed + 7);
    Rng action_rng(options.seed + 11);
    data::DprBehaviorPolicy behavior;
    nn::Tensor obs = penalized.Reset(rng_a);
    plain.Reset(rng_b);
    std::vector<double> pen_rewards, plain_rewards, expected_penalty;
    std::vector<uint8_t> live;
    for (int t = 0; t < penalized.horizon(); ++t) {
      const nn::Tensor actions = behavior.Act(obs, action_rng);
      nn::Tensor inputs(obs.rows(), envs::kDprObsDim + envs::kDprActionDim);
      for (int i = 0; i < obs.rows(); ++i) {
        for (int c = 0; c < envs::kDprObsDim; ++c) inputs(i, c) = obs(i, c);
        for (int c = 0; c < envs::kDprActionDim; ++c) {
          inputs(i, envs::kDprObsDim + c) =
              std::clamp(actions(i, c), 0.0, 1.0);
        }
      }
      const std::vector<nn::Tensor> means = pipeline.ensemble.AllMeans(inputs);
      const envs::StepResult a = penalized.Step(actions, rng_a);
      const envs::StepResult b = plain.Step(actions, rng_b);
      for (int i = 0; i < obs.rows(); ++i) {
        double mean = 0.0;
        for (const nn::Tensor& mu : means) mean += mu(i, 0);
        mean /= means.size();
        double u = 0.0;
        for (const nn::Tensor& mu : means) u += std::fabs(mu(i, 0) - mean);
        u /= means.size();
        pen_rewards.push_back(a.rewards[i]);
        plain_rewards.push_back(b.rewards[i]);
        expected_penalty.push_back(with.uncertainty_alpha * u *
                                   envs::kDprOrderScale);
        live.push_back(!a.dones[i] && !b.dones[i]);
      }
      obs = a.next_obs;
      if (a.horizon_reached) break;
    }
    checks->Expect("penalised reward = reward - alpha*U*scale",
                   [&](bool corrupt) {
                     int compared = 0;
                     for (size_t i = 0; i < pen_rewards.size(); ++i) {
                       double pen = pen_rewards[i];
                       if (corrupt && i == pen_rewards.size() / 2) {
                         pen += 1e-3;
                       }
                       const double want = plain_rewards[i] -
                                           expected_penalty[i];
                       if (expected_penalty[i] < 0.0) return false;
                       if (!live[i]) {
                         if (pen != plain_rewards[i]) return false;
                         continue;
                       }
                       if (pen > plain_rewards[i]) return false;
                       if (std::fabs(pen - want) >
                           1e-9 * std::max(1.0, std::fabs(want))) {
                         return false;
                       }
                       ++compared;
                     }
                     return compared > 0;
                   });
  }
  phases->Add("checks", penalty_start, NowUs());

  Result result = RunTraining(options, spec, kBudget, /*margin=*/-1.0,
                              phases, checks);
  result.end_to_end.insert(
      result.end_to_end.begin(),
      {"setup_s", (setup_end - g_process_start_us) * 1e-6, "s"});
  if (options.trace) {
    result.per_layer.push_back({"sim.simset_build_s", simset_build_s, "s"});
  }
  std::fprintf(stderr, "simulator-set build: %.3f s\n", simset_build_s);
  return result;
}

}  // namespace perfbench
