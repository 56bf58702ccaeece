// TrainingSupervisor (DESIGN.md §16): the policy presets and spec
// grammar, the epoch-deadline math, the backoff state machine, and the
// end-to-end guarantees under injected faults:
//   * resilience=off and full-with-no-faults trajectories are
//     bit-identical to the plain loop,
//   * poisoned updates quarantine under sanitization instead of
//     NaN-ing the weights,
//   * a hang is detected by the epoch deadline and retried with the step
//     size unchanged — bit-identical to the fault-free run,
//   * repeated numeric failures exhaust the bounded recovery budget,
//   * time-cadence auto-checkpoints crash-resume bit-identically on the
//     mini-batch step loop.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "data/generator.hpp"
#include "faults/injector.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/checkpoint.hpp"
#include "sgd/spec.hpp"
#include "sgd/supervisor.hpp"

namespace parsgd {
namespace {

struct Fixture {
  Dataset ds;
  LogisticRegression lr;
  EngineContext ctx;
  std::vector<real_t> w0;

  explicit Fixture(const char* name = "w8a", double gen_scale = 500.0)
      : ds(generate_dataset(name,
                            GeneratorOptions{.seed = 5, .scale = gen_scale})),
        lr(ds.d()) {
    ctx = make_engine_context(ds, lr, Layout::kSparse);
    w0 = lr.init_params(5);
  }

  RunResult run(const std::string& spec_text, real_t alpha,
                const TrainOptions& opts,
                FaultCounters* counters = nullptr) const {
    const std::unique_ptr<Engine> engine =
        make_engine(parse_spec(spec_text), ctx);
    const RunResult r =
        run_training(*engine, lr, ctx.data, w0, alpha, opts);
    if (counters != nullptr) *counters = engine->fault_injector().counters();
    return r;
  }
};

TrainOptions epochs(std::size_t n) {
  TrainOptions t;
  t.max_epochs = n;
  return t;
}

TrainOptions full_epochs(std::size_t n) {
  TrainOptions t = epochs(n);
  t.supervisor = supervisor_options_for(ResilienceMode::kFull);
  return t;
}

// ----------------------------------------------------------------- policy

TEST(SupervisorPolicy, ModeNamesRoundTrip) {
  for (const ResilienceMode m : {ResilienceMode::kOff,
                                 ResilienceMode::kFull}) {
    const auto back = parse_resilience_mode(to_string(m));
    ASSERT_TRUE(back.has_value()) << to_string(m);
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(parse_resilience_mode("bogus").has_value());
  EXPECT_FALSE(parse_resilience_mode("").has_value());
}

TEST(SupervisorPolicy, SpecKeyParsesFormatsAndDefaultsOff) {
  const EngineSpec s =
      parse_spec("sync/cpu-seq/sparse:resilience=full");
  EXPECT_EQ(s.resilience, ResilienceMode::kFull);
  EXPECT_EQ(parse_spec(format_spec(s)), s);
  // Default off and omitted from the canonical form.
  const EngineSpec plain = parse_spec("sync/cpu-seq/sparse");
  EXPECT_EQ(plain.resilience, ResilienceMode::kOff);
  EXPECT_EQ(format_spec(plain).find("resilience"), std::string::npos);
  EXPECT_FALSE(try_parse_spec("sync/cpu-seq/sparse:resilience=bogus")
                   .has_value());
}

TEST(SupervisorPolicy, PresetsMatchTheContract) {
  const SupervisorOptions off =
      supervisor_options_for(ResilienceMode::kOff);
  EXPECT_EQ(off.mode, ResilienceMode::kOff);

  const SupervisorOptions f = supervisor_options_for(ResilienceMode::kFull);
  EXPECT_EQ(f.mode, ResilienceMode::kFull);
  EXPECT_DOUBLE_EQ(f.alpha_backoff, 0.5);
  EXPECT_EQ(f.recovery_budget, 8u);

  EXPECT_TRUE(TrainingSupervisor(f, nullptr).active());
  EXPECT_FALSE(TrainingSupervisor(off, nullptr).active());
}

// --------------------------------------------------------- epoch deadline

TEST(SupervisorGate, EpochDeadlineArmsAfterFirstObservation) {
  TrainingSupervisor sup(supervisor_options_for(ResilienceMode::kFull),
                         nullptr);
  EXPECT_DOUBLE_EQ(sup.epoch_deadline_s(), 0.0);
  EXPECT_FALSE(sup.epoch_deadline_exceeded(1e9));  // unarmed: never fires
  sup.observe_epoch_seconds(0.01);
  EXPECT_DOUBLE_EQ(sup.epoch_deadline_s(), 0.05 + 8 * 0.01);
  EXPECT_TRUE(sup.epoch_deadline_exceeded(0.2));
  EXPECT_FALSE(sup.epoch_deadline_exceeded(0.1));
  // A detached (off) supervisor never speculates on time.
  TrainingSupervisor off(supervisor_options_for(ResilienceMode::kOff),
                         nullptr);
  off.observe_epoch_seconds(0.01);
  EXPECT_DOUBLE_EQ(off.epoch_deadline_s(), 0.0);
}

// ---------------------------------------------------------------- backoff

TEST(SupervisorBackoff, FullModeEscalatesAndJitters) {
  SupervisorOptions o = supervisor_options_for(ResilienceMode::kFull);
  o.backoff_jitter = 0;
  TrainingSupervisor sup(o, nullptr);
  // Exponential in the consecutive-failure count...
  EXPECT_DOUBLE_EQ(sup.on_epoch_failed(true, 0), 0.5);
  EXPECT_DOUBLE_EQ(sup.on_epoch_failed(true, 0), 0.25);
  // ...reset by a clean epoch...
  sup.on_epoch_clean();
  EXPECT_DOUBLE_EQ(sup.on_epoch_failed(true, 1), 0.5);
  // ...and bypassed entirely for execution-time failures: the math was
  // fine, only the wall clock was not.
  EXPECT_DOUBLE_EQ(sup.on_epoch_failed(/*numeric=*/false, 2), 1.0);
  EXPECT_DOUBLE_EQ(sup.on_epoch_failed(true, 3), 0.25);  // streak intact

  SupervisorOptions jittered =
      supervisor_options_for(ResilienceMode::kFull);
  jittered.backoff_jitter = 0.1;
  TrainingSupervisor js(jittered, nullptr);
  const double m = js.on_epoch_failed(true, 0);
  EXPECT_GE(m, 0.5 * 0.9);
  EXPECT_LE(m, 0.5 * 1.1);
}

// ------------------------------------------------------------ integration

TEST(SupervisorTraining, FullModeWithoutFaultsIsBitIdentical) {
  Fixture f;
  const RunResult off =
      f.run("sync/cpu-seq/sparse:batch=32", real_t(0.1), epochs(8));
  const RunResult on =
      f.run("sync/cpu-seq/sparse:batch=32", real_t(0.1), full_epochs(8));
  EXPECT_EQ(on.losses, off.losses);
  EXPECT_EQ(on.epoch_seconds, off.epoch_seconds);
  // Deadline retries (if any host-time stall triggered one) keep alpha
  // untouched, so the scale is exactly 1 either way.
  EXPECT_DOUBLE_EQ(on.alpha_scale, 1.0);

  const RunResult async_off =
      f.run("async/cpu-par/sparse", real_t(0.1), epochs(5));
  const RunResult async_on =
      f.run("async/cpu-par/sparse", real_t(0.1), full_epochs(5));
  EXPECT_EQ(async_on.losses, async_off.losses);
}

TEST(SupervisorTraining, PoisonQuarantinesUnderFullSanitization) {
  Fixture f;
  // Unsanitized (resilience off): the poisoned update writes NaN into the
  // weights and the run diverges.
  FaultCounters unsan;
  const RunResult poisoned = f.run("sync/cpu-seq/sparse:poison=0.5",
                                   real_t(0.5), epochs(8), &unsan);
  EXPECT_TRUE(poisoned.diverged);
  EXPECT_GT(unsan.poisoned, 0u);
  EXPECT_EQ(unsan.quarantined, 0u);

  // Sanitized (full mode): the same plan quarantines the poison draws at
  // the injector; every loss stays finite and nothing reaches w.
  FaultCounters san;
  const RunResult clean = f.run("sync/cpu-seq/sparse:poison=0.5",
                                real_t(0.5), full_epochs(8), &san);
  EXPECT_FALSE(clean.diverged);
  ASSERT_EQ(clean.losses.size(), 8u);
  for (const double l : clean.losses) EXPECT_TRUE(std::isfinite(l));
  EXPECT_GT(san.quarantined, 0u);
  EXPECT_EQ(san.poisoned, 0u);
  EXPECT_EQ(clean.resilience.quarantined, san.quarantined);
}

TEST(SupervisorTraining, HangRecoversViaEpochDeadlineBitIdentically) {
  Fixture f;
  const RunResult base =
      f.run("sync/cpu-seq/sparse", real_t(0.5), epochs(6));
  // A 500ms one-shot hang at epoch 3 dwarfs the epoch deadline (50ms
  // floor + 8x a millisecond-scale EWMA). The supervisor rolls the epoch
  // back and retries; the hang is latched, the retry is clean, and the
  // alpha multiplier for execution-time failures is exactly 1 — so the
  // trajectory is bit-identical to the fault-free run.
  FaultCounters c;
  const RunResult r = f.run("sync/cpu-seq/sparse:faults=hang@3:500",
                            real_t(0.5), full_epochs(6), &c);
  EXPECT_EQ(r.losses, base.losses);
  EXPECT_EQ(r.epoch_seconds, base.epoch_seconds);
  EXPECT_DOUBLE_EQ(r.alpha_scale, 1.0);
  EXPECT_EQ(c.hangs, 1u);
  ASSERT_GE(r.recoveries.size(), 1u);
  bool saw_deadline = false;
  for (const RecoveryEvent& ev : r.recoveries) {
    EXPECT_EQ(ev.reason, RecoveryReason::kDeadline);
    saw_deadline |= ev.epoch == 3;
  }
  EXPECT_TRUE(saw_deadline);
  EXPECT_EQ(r.resilience.recoveries, r.recoveries.size());
}

TEST(SupervisorTraining, NumericFailuresExhaustBudget) {
  // A step size so large that no amount of backoff rescues it: the
  // supervisor spends its whole budget and the run is finally reported
  // diverged like the unguarded loop.
  Fixture f("covtype");
  const RunResult r =
      f.run("sync/cpu-seq/sparse", real_t(1e30), full_epochs(20));
  EXPECT_TRUE(r.diverged);
  const std::size_t budget =
      supervisor_options_for(ResilienceMode::kFull).recovery_budget;
  EXPECT_EQ(r.recoveries.size(), budget);
  EXPECT_EQ(r.resilience.recoveries, budget);
  EXPECT_LT(r.alpha_scale, 1.0);
}

TEST(SupervisorTraining, TimedAutoCheckpointCrashResumesOnMiniBatchPath) {
  // crash@E + auto-checkpoint + resume on the mini-batch step loop
  // reproduces the uninterrupted trajectory exactly.
  Fixture f;
  ThreadPool pool(4);
  f.ctx.pool = &pool;
  const std::string spec = "sync/cpu-par/sparse:batch=32";
  const real_t alpha = real_t(0.1);

  // Baseline with a time cadence so aggressive it checkpoints after
  // every epoch; the supervisor counts each write.
  const std::string base_ck =
      testing::TempDir() + "/parsgd_sup_ck_base.bin";
  TrainOptions base_opts = full_epochs(10);
  base_opts.checkpoint_path = base_ck;
  base_opts.checkpoint_every_seconds = 1e-9;
  const RunResult base = f.run(spec, alpha, base_opts);
  EXPECT_GE(base.resilience.checkpoints, 10u);

  const std::string ckpath = testing::TempDir() + "/parsgd_sup_ck.bin";
  TrainOptions crashing = full_epochs(10);
  crashing.checkpoint_path = ckpath;
  crashing.checkpoint_every_seconds = 1e-9;
  EXPECT_THROW(
      f.run("sync/cpu-par/sparse:batch=32,faults=crash@6", alpha,
            crashing),
      CrashFault);

  const TrainCheckpoint ck = load_checkpoint(ckpath);
  EXPECT_EQ(ck.next_epoch, 6u);
  TrainOptions resuming = full_epochs(10);
  resuming.resume = &ck;
  const RunResult resumed = f.run(spec, alpha, resuming);
  EXPECT_EQ(resumed.losses, base.losses);
  EXPECT_EQ(resumed.epoch_seconds, base.epoch_seconds);
  EXPECT_FALSE(resumed.diverged);
}

}  // namespace
}  // namespace parsgd
