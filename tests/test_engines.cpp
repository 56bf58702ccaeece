#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iterator>

#include "data/generator.hpp"
#include "data/mlp_view.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/async_engine.hpp"
#include "sgd/convergence.hpp"
#include "sgd/stepsize.hpp"
#include "sgd/sync_engine.hpp"

namespace parsgd {
namespace {

struct Fixture {
  Dataset ds;
  TrainData data;
  LogisticRegression lr;
  ScaleContext scale;
  std::vector<real_t> w0;

  explicit Fixture(const char* name, double gen_scale = 500.0)
      : ds(generate_dataset(name,
                            GeneratorOptions{.seed = 5, .scale = gen_scale})),
        lr(ds.d()) {
    data.sparse = &ds.x;
    data.dense = ds.x_dense ? &*ds.x_dense : nullptr;
    data.y = ds.y;
    scale = make_scale_context(ds, lr, ds.profile.dense);
    w0 = lr.init_params(5);
  }
};

TEST(SyncEngine, GpuFasterThanCpuParFasterThanCpuSeq) {
  Fixture f("covtype");
  auto secs = [&](Arch arch) {
    SyncEngineOptions opts;
    opts.arch = arch;
    opts.use_dense = true;
    SyncEngine e(f.lr, f.data, f.scale, opts);
    return e.epoch_seconds(f.w0);
  };
  const double gpu = secs(Arch::kGpu);
  const double par = secs(Arch::kCpuPar);
  const double seq = secs(Arch::kCpuSeq);
  EXPECT_LT(gpu, par);   // headline: GPU always wins sync
  EXPECT_LT(par, seq);   // parallel CPU beats sequential
  EXPECT_GT(seq / par, 10.0);  // large parallel speedup
}

TEST(SyncEngine, TrajectoryIsArchIndependent) {
  Fixture f("w8a");
  auto losses = [&](Arch arch) {
    SyncEngineOptions opts;
    opts.arch = arch;
    SyncEngine e(f.lr, f.data, f.scale, opts);
    TrainOptions t;
    t.max_epochs = 5;
    return run_training(e, f.lr, f.data, f.w0, real_t(1.0), t).losses;
  };
  EXPECT_EQ(losses(Arch::kCpuSeq), losses(Arch::kGpu));
}

TEST(SyncEngine, ReducesLoss) {
  Fixture f("real-sim");
  SyncEngineOptions opts;
  SyncEngine e(f.lr, f.data, f.scale, opts);
  TrainOptions t;
  t.max_epochs = 20;
  const RunResult r = run_training(e, f.lr, f.data, f.w0, real_t(10.0), t);
  EXPECT_FALSE(r.diverged);
  EXPECT_LT(r.best_loss(), r.initial_loss * 0.95);
  EXPECT_GT(r.seconds_per_epoch(), 0.0);
}

TEST(SyncEngine, DivergenceDetected) {
  Fixture f("covtype");
  SyncEngineOptions opts;
  opts.use_dense = true;
  SyncEngine e(f.lr, f.data, f.scale, opts);
  TrainOptions t;
  t.max_epochs = 50;
  const RunResult r =
      run_training(e, f.lr, f.data, f.w0, real_t(1e6), t);
  EXPECT_TRUE(r.diverged);
  EXPECT_LT(r.epochs(), 50u);
}

TEST(AsyncCpuEngine, SeqMatchesPlainSgdTrajectory) {
  Fixture f("w8a");
  AsyncCpuOptions opts;
  opts.arch = Arch::kCpuSeq;
  AsyncCpuEngine e(f.lr, f.data, f.scale, opts);
  TrainOptions t;
  t.max_epochs = 10;
  const RunResult r = run_training(e, f.lr, f.data, f.w0, real_t(0.1), t);
  EXPECT_FALSE(r.diverged);
  EXPECT_LT(r.losses.back(), r.initial_loss);
}

TEST(AsyncCpuEngine, ParallelSparseFasterPerEpochThanSeq) {
  // news: sparse data, million-feature model — the Hogwild sweet spot.
  Fixture f("news", 200.0);
  auto avg_secs = [&](Arch arch) {
    AsyncCpuOptions opts;
    opts.arch = arch;
    AsyncCpuEngine e(f.lr, f.data, f.scale, opts);
    TrainOptions t;
    t.max_epochs = 2;
    return run_training(e, f.lr, f.data, f.w0, real_t(0.1), t)
        .seconds_per_epoch();
  };
  const double seq = avg_secs(Arch::kCpuSeq);
  const double par = avg_secs(Arch::kCpuPar);
  EXPECT_LT(par, seq);
  EXPECT_GT(seq / par, 2.0);   // clearly parallel...
  EXPECT_LT(seq / par, 40.0);  // ...but nowhere near 56x
}

TEST(AsyncCpuEngine, DenseConflictsHurtParallelEpochTime) {
  // covtype: 4-line model; Table III shows cpu-par *slower* per epoch.
  Fixture f("covtype");
  auto avg_secs = [&](Arch arch) {
    AsyncCpuOptions opts;
    opts.arch = arch;
    opts.prefer_dense = true;
    AsyncCpuEngine e(f.lr, f.data, f.scale, opts);
    TrainOptions t;
    t.max_epochs = 2;
    t.prefer_dense = true;
    return run_training(e, f.lr, f.data, f.w0, real_t(0.01), t)
        .seconds_per_epoch();
  };
  EXPECT_GT(avg_secs(Arch::kCpuPar), avg_secs(Arch::kCpuSeq));
}

TEST(AsyncGpuEngine, RunsAndCharges) {
  Fixture f("w8a");
  AsyncGpuOptions opts;
  AsyncGpuEngine e(f.lr, f.data, f.scale, opts);
  TrainOptions t;
  t.max_epochs = 3;
  const RunResult r = run_training(e, f.lr, f.data, f.w0, real_t(0.1), t);
  EXPECT_FALSE(r.diverged);
  EXPECT_GT(r.seconds_per_epoch(), 0.0);
  EXPECT_EQ(e.arch(), Arch::kGpu);
  EXPECT_EQ(e.update(), Update::kAsync);
}

TEST(AsyncGpuEngine, MlpUsesHogbatch) {
  const Dataset base =
      generate_dataset("covtype", GeneratorOptions{.seed = 5, .scale = 500});
  const Dataset mlp_ds = make_mlp_dataset(base);
  TrainData data;
  data.sparse = &mlp_ds.x;
  data.dense = &*mlp_ds.x_dense;
  data.y = mlp_ds.y;
  Mlp mlp(base.profile.mlp_architecture());
  const ScaleContext scale = make_scale_context(mlp_ds, mlp, true);
  AsyncGpuOptions opts;
  opts.batch = 64;
  opts.prefer_dense = true;
  AsyncGpuEngine e(mlp, data, scale, opts);
  EXPECT_EQ(e.name(), "async/gpu/hogbatch");
  TrainOptions t;
  t.max_epochs = 2;
  t.prefer_dense = true;
  const auto w0 = mlp.init_params(5);
  const RunResult r = run_training(e, mlp, data, w0, real_t(0.5), t);
  EXPECT_LT(r.losses.back(), r.initial_loss);
}

// ---- convergence & step size ----

TEST(Convergence, PointDetection) {
  RunResult run;
  run.initial_loss = 100;
  run.losses = {50, 20, 10.5, 10.05, 10.0};
  run.epoch_seconds = {1, 1, 1, 1, 1};
  const ConvergencePoint p10 = convergence_point(run, 10.0, 0.10);
  EXPECT_TRUE(p10.reached);
  EXPECT_EQ(p10.epochs, 3u);
  EXPECT_DOUBLE_EQ(p10.seconds, 3.0);
  const ConvergencePoint p1 = convergence_point(run, 10.0, 0.01);
  EXPECT_TRUE(p1.reached);
  EXPECT_EQ(p1.epochs, 4u);
  const ConvergencePoint exact = convergence_point(run, 10.0, 0.0);
  EXPECT_EQ(exact.epochs, 5u);
}

TEST(Convergence, UnreachedIsInfinite) {
  RunResult run;
  run.initial_loss = 100;
  run.losses = {90, 80};
  run.epoch_seconds = {1, 1};
  const ConvergencePoint p = convergence_point(run, 10.0, 0.01);
  EXPECT_FALSE(p.reached);
  EXPECT_EQ(p.seconds, kInfTime);
}

TEST(Convergence, OptimalLossAcrossRuns) {
  RunResult a, b;
  a.initial_loss = b.initial_loss = 10;
  a.losses = {5, 3};
  b.losses = {4, 2};
  const RunResult runs[] = {a, b};
  EXPECT_DOUBLE_EQ(optimal_loss(runs), 2.0);
}

TEST(StepSearch, PicksKnownBestAlpha) {
  // Synthetic engine: loss decays geometrically with rate depending on
  // alpha; alpha=0.01 is fastest; larger alphas diverge.
  auto make_run = [](double alpha, std::size_t epochs) {
    RunResult r;
    r.initial_loss = 100;
    double loss = 100;
    const double rate = alpha > 0.05   ? 2.0   // diverges
                        : alpha == 0.01 ? 0.3
                        : alpha == 0.001 ? 0.8
                                         : 0.95;
    for (std::size_t e = 0; e < epochs; ++e) {
      loss *= rate;
      r.losses.push_back(loss);
      r.epoch_seconds.push_back(1.0);
      if (loss > 1000) {
        r.diverged = true;
        break;
      }
    }
    return r;
  };
  StepSearchOptions opts;
  opts.grid = {1e-4, 1e-3, 1e-2, 1e-1};
  opts.probe_epochs = 5;
  opts.full_epochs = 60;
  const StepSearchResult res = search_step_size(make_run, opts);
  EXPECT_DOUBLE_EQ(res.alpha, 0.01);
  EXPECT_EQ(res.probed.size(), 4u);
}

TEST(StepSearch, AllDivergentReportsFailure) {
  auto make_run = [](double, std::size_t) {
    RunResult r;
    r.initial_loss = 1;
    r.losses = {1e9};
    r.epoch_seconds = {1.0};
    r.diverged = true;
    return r;
  };
  StepSearchOptions opts;
  opts.grid = {1.0, 10.0};
  const StepSearchResult res = search_step_size(make_run, opts);
  EXPECT_TRUE(res.failed);
  EXPECT_TRUE(res.run.diverged);
  EXPECT_TRUE(std::isinf(res.optimum));
  EXPECT_EQ(res.diverged_probes, (std::vector<double>{1.0, 10.0}));
}

TEST(RunTraining, PlateauStopsEarly) {
  Fixture f("w8a");
  SyncEngineOptions opts;
  SyncEngine e(f.lr, f.data, f.scale, opts);
  TrainOptions t;
  t.max_epochs = 100;
  t.plateau_window = 3;
  t.plateau_rtol = 0.5;  // aggressive: stop as soon as gains halve
  const RunResult r = run_training(e, f.lr, f.data, f.w0, real_t(1e-6), t);
  EXPECT_LT(r.epochs(), 100u);
}

TEST(RunTraining, InjectedPoolRunNeverBuildsTheGlobalPool) {
  // With the attribution ledger off, run_training has no use for a pool
  // size; a run on an injected one-worker pool must leave the process at
  // two threads (main + that worker), with no process-global pool. The
  // threadsafe style re-executes the binary for the child, so no earlier
  // test's threads are counted.
  const std::string style = testing::GTEST_FLAG(death_test_style);
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        Fixture f("w8a");
        ThreadPool pool(1);
        SyncEngineOptions opts;
        opts.arch = Arch::kCpuPar;
        opts.pool = &pool;
        SyncEngine e(f.lr, f.data, f.scale, opts);
        TrainOptions t;
        t.max_epochs = 2;
        run_training(e, f.lr, f.data, f.w0, real_t(0.5), t);
        const auto threads = std::distance(
            std::filesystem::directory_iterator("/proc/self/task"),
            std::filesystem::directory_iterator{});
        std::exit(static_cast<int>(threads));
      },
      testing::ExitedWithCode(2), "");
  testing::GTEST_FLAG(death_test_style) = style;
}

}  // namespace
}  // namespace parsgd
