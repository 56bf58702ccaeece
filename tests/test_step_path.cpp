// The mini-batch step loop (sgd/step_path, DESIGN.md §15): one
// batch_step per shuffled batch, with the injector hooks in a fixed order.
// Trajectories are run-to-run stable, equal to a hand-written batch_step
// loop, and — end to end through SyncEngine — independent of the pool
// size.
#include "sgd/step_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "data/generator.hpp"
#include "faults/injector.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/sync_engine.hpp"

namespace parsgd {
namespace {

// ---- step-path determinism contract ----------------------------------

/// Synthetic sparse LR problem with a few dozen batches per epoch.
struct StepPathFixture {
  static constexpr std::size_t kRows = 4096;
  static constexpr std::size_t kCols = 256;

  CsrMatrix x;
  std::vector<real_t> y;
  LogisticRegression model;
  TrainData data;

  StepPathFixture()
      : x([] {
          Rng rng(33);
          CsrMatrix::Builder b(kCols);
          std::vector<index_t> idx;
          std::vector<real_t> val;
          for (std::size_t i = 0; i < kRows; ++i) {
            idx.clear();
            val.clear();
            for (int k = 0; k < 16; ++k) {
              idx.push_back(static_cast<index_t>(rng.uniform_index(kCols)));
            }
            std::sort(idx.begin(), idx.end());
            idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
            for (std::size_t k = 0; k < idx.size(); ++k) {
              val.push_back(static_cast<real_t>(rng.normal()));
            }
            b.add_row(idx, val);
          }
          return std::move(b).build();
        }()),
        y(kRows),
        model(kCols) {
    Rng rng(34);
    for (auto& v : y) v = rng.bernoulli(0.5) ? real_t(1) : real_t(-1);
    data.sparse = &x;
    data.y = y;
  }

  /// `plan` (optional) is installed into the epoch loop's injector.
  std::vector<real_t> run(std::size_t batch, const FaultPlan& plan = {},
                          int epochs = 3) const {
    FaultInjector faults;
    faults.install(plan, 11);
    MinibatchEpochOptions opts;
    opts.minibatch = batch;
    std::vector<real_t> w = model.init_params(5);
    Rng rng(7);
    for (int e = 0; e < epochs; ++e) {
      run_minibatch_epoch(model, data, real_t(0.1), w, rng, faults,
                          nullptr, opts);
    }
    return w;
  }
};

TEST(StepPathDeterminism, IsRunToRunStable) {
  const StepPathFixture f;
  EXPECT_EQ(f.run(256), f.run(256));
  EXPECT_EQ(f.run(1024), f.run(1024));
}

TEST(StepPathDeterminism, MatchesPlainBatchStepLoop) {
  // The loop is exactly: shuffle the batch order, then per batch draw
  // drop_update, run batch_step unless dropped, and advance the injector.
  // Batches of 1024 and more take the same summation order as small ones.
  const StepPathFixture f;
  FaultPlan plan;
  plan.drop_prob = 0.25;
  for (const std::size_t batch : {std::size_t{64}, std::size_t{1024}}) {
    FaultInjector faults;
    faults.install(plan, 11);
    std::vector<real_t> w = f.model.init_params(5);
    Rng rng(7);
    const std::size_t n = f.data.n();
    for (int e = 0; e < 3; ++e) {
      std::vector<std::uint32_t> order((n + batch - 1) / batch);
      for (std::size_t b = 0; b < order.size(); ++b) {
        order[b] = static_cast<std::uint32_t>(b);
      }
      rng.shuffle(order);
      for (const std::uint32_t b : order) {
        if (!faults.drop_update()) {
          const std::size_t begin = b * batch;
          f.model.batch_step(f.data, begin, std::min(n, begin + batch),
                             false, real_t(0.1), w, w);
        }
        faults.after_update(w);
      }
    }
    EXPECT_EQ(f.run(batch, plan), w) << "batch " << batch;
    EXPECT_GT(faults.counters().dropped, 0u);
  }
}

TEST(StepPathDeterminism, SyncEngineTrajectoryInvariantAcrossPools) {
  // End to end through SyncEngine (det=on default): mini-batch epochs via
  // the engine are bit-identical across pool sizes {1, 2, 8} — the pool
  // runs only the cost-instrumentation pass.
  const Dataset ds =
      generate_dataset("w8a", GeneratorOptions{.seed = 5, .scale = 20.0});
  LogisticRegression lr(ds.d());
  TrainData data;
  data.sparse = &ds.x;
  data.y = ds.y;
  const ScaleContext scale = make_scale_context(ds, lr, ds.profile.dense);
  const std::vector<real_t> w0 = lr.init_params(5);

  auto run = [&](std::size_t pool_size) {
    ThreadPool pool(pool_size);
    SyncEngineOptions opts;
    opts.minibatch = 1024;
    opts.pool = &pool;
    SyncEngine e(lr, data, scale, opts);
    std::vector<real_t> w = w0;
    Rng rng(9);
    for (int i = 0; i < 3; ++i) e.run_epoch(w, real_t(0.5), rng);
    return w;
  };

  const std::vector<real_t> w1 = run(1);
  EXPECT_EQ(w1, run(2));
  EXPECT_EQ(w1, run(8));
}

}  // namespace
}  // namespace parsgd
