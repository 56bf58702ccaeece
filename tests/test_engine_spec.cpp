#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/check.hpp"
#include "data/generator.hpp"
#include "models/linear.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/async_engine.hpp"
#include "sgd/convergence.hpp"
#include "sgd/spec.hpp"

namespace parsgd {
namespace {

struct Fixture {
  Dataset ds;
  LogisticRegression lr;
  EngineContext ctx;
  std::vector<real_t> w0;

  explicit Fixture(const char* name, Layout layout = Layout::kSparse)
      : ds(generate_dataset(name,
                            GeneratorOptions{.seed = 5, .scale = 500.0})),
        lr(ds.d()) {
    ctx = make_engine_context(ds, lr, layout);
    w0 = lr.init_params(5);
  }
};

TEST(EngineSpec, RegisteredSpecsRoundTrip) {
  const std::vector<EngineSpec> specs = registered_specs();
  ASSERT_GE(specs.size(), 7u);  // the full Fig. 1 cube + cpu+gpu
  for (const EngineSpec& s : specs) {
    EXPECT_EQ(parse_spec(format_spec(s)), s) << format_spec(s);
  }
}

TEST(EngineSpec, CanonicalStringsRoundTrip) {
  // Canonical text -> spec -> text is the identity.
  for (const char* text : {
           "sync/cpu-seq/sparse",
           "sync/cpu-par/dense",
           "sync/gpu/dense:batch=64,calib=mlp",
           "async/cpu-seq/sparse:batch=64,calib=mlp,delay=3,threads=8",
           "async/cpu-par/sparse:threads=28",
           "async/gpu/dense:batch=512,calib=mlp",
           "sync/cpu-par/dense:calib=none,gemmth=0",
           "sync/cpu+gpu/dense:phi=0.6",
           "sync/cpu+gpu/sparse",
       }) {
    EXPECT_EQ(format_spec(parse_spec(text)), text);
  }
}

TEST(EngineSpec, OptionFieldsParse) {
  const EngineSpec s = parse_spec(
      "async/cpu-par/dense:batch=512,calib=mlp,delay=7,threads=16");
  EXPECT_EQ(s.update, Update::kAsync);
  EXPECT_EQ(s.arch, Arch::kCpuPar);
  EXPECT_EQ(s.layout, Layout::kDense);
  EXPECT_EQ(s.batch, 512u);
  EXPECT_EQ(s.calibration, Calibration::kMlp);
  EXPECT_EQ(s.delay_units, 7u);
  EXPECT_EQ(s.threads, 16);
  EXPECT_FALSE(s.heterogeneous);

  const EngineSpec h = parse_spec("sync/cpu+gpu/dense:phi=0.25");
  EXPECT_TRUE(h.heterogeneous);
  EXPECT_EQ(h.arch, Arch::kGpu);  // the engine's reported device
  EXPECT_EQ(h.update, Update::kSync);
  EXPECT_DOUBLE_EQ(h.gpu_fraction, 0.25);
  EXPECT_EQ(h.family(), "sync/cpu+gpu");
}

TEST(EngineSpec, MalformedSpecsRejected) {
  for (const char* text : {
           "",
           "sync",
           "sync/cpu-par",
           "sync/cpu-par/sparse/extra",
           "frob/cpu-par/sparse",
           "sync/tpu/sparse",
           "sync/cpu-par/ragged",
           "async/cpu+gpu/sparse",           // hetero is sync-only
           "sync/cpu-par/sparse:phi=0.5",    // phi needs cpu+gpu
           "sync/cpu+gpu/sparse:phi=1.5",    // phi out of [0,1]
           "sync/cpu+gpu/sparse:phi=nope",
           "sync/cpu-par/sparse:batch=abc",
           "sync/cpu-par/sparse:batch=",
           "sync/cpu-par/sparse:frob=1",
           "sync/cpu-par/sparse:",
           "sync/cpu-par/sparse:batch",
           "sync/cpu-par/sparse:calib=magic",
           "sync/cpu-par/sparse:graph=maybe",
       }) {
    EXPECT_FALSE(try_parse_spec(text).has_value()) << text;
    EXPECT_THROW(parse_spec(text), CheckError) << text;
  }
  // Retired keys and values (the graph= step-path switch, the watchdog
  // resilience preset) fail loudly and name the offending token instead
  // of being silently accepted.
  for (const auto& [text, token] : {
           std::pair{"sync/cpu-par/sparse:graph=on", "'graph'"},
           std::pair{"sync/cpu-par/sparse:graph=off", "'graph'"},
           std::pair{"sync/cpu-par/sparse:resilience=watchdog",
                     "'resilience=watchdog'"},
       }) {
    std::string error;
    EXPECT_FALSE(try_parse_spec(text, &error).has_value()) << text;
    EXPECT_NE(error.find(token), std::string::npos) << text << ": " << error;
    EXPECT_THROW(parse_spec(text), CheckError) << text;
  }
}

TEST(EngineSpec, EveryRegisteredSpecYieldsMatchingEngine) {
  Fixture f("covtype");
  for (const EngineSpec& spec : registered_specs()) {
    const std::unique_ptr<Engine> engine = make_engine(spec, f.ctx);
    ASSERT_NE(engine, nullptr) << format_spec(spec);
    EXPECT_EQ(engine->update(), spec.update) << format_spec(spec);
    EXPECT_EQ(engine->arch(), spec.arch) << format_spec(spec);
    // Engine names start with the family key ("sync/cpu-par/dense", ...).
    EXPECT_EQ(engine->name().rfind(spec.family(), 0), 0u)
        << engine->name() << " vs " << format_spec(spec);
  }
}

TEST(EngineSpec, UnknownFamilyAndMissingDenseRejected) {
  Fixture f("news");  // news20-like: too wide for a dense materialization
  ASSERT_FALSE(f.ctx.data.has_dense());
  EngineSpec dense = parse_spec("sync/cpu-seq/dense");
  EXPECT_THROW(make_engine(dense, f.ctx), CheckError);
  EXPECT_THROW(make_engine(EngineSpec{}, EngineContext{}), CheckError);
}

TEST(EngineSpec, SyncTrajectoryBitIdenticalAcrossArchSpecs) {
  Fixture f("w8a");
  auto losses = [&](const char* text) {
    const std::unique_ptr<Engine> engine = make_engine(parse_spec(text),
                                                       f.ctx);
    TrainOptions t;
    t.max_epochs = 5;
    return run_training(*engine, f.lr, f.ctx.data, f.w0, real_t(1.0), t)
        .losses;
  };
  const std::vector<double> seq = losses("sync/cpu-seq/sparse");
  EXPECT_EQ(seq, losses("sync/cpu-par/sparse"));
  EXPECT_EQ(seq, losses("sync/gpu/sparse"));
}

TEST(EngineSpec, InjectedPoolIsExecutionOnly) {
  // A pool from the context must not change the trajectory (the pooled
  // batch-step contract), only where the work runs.
  Fixture f("covtype");
  auto losses = [&](ThreadPool* pool) {
    EngineContext ctx = f.ctx;
    ctx.pool = pool;
    const std::unique_ptr<Engine> engine =
        make_engine(parse_spec("sync/cpu-seq/sparse:batch=32"), ctx);
    TrainOptions t;
    t.max_epochs = 3;
    return run_training(*engine, f.lr, ctx.data, f.w0, real_t(0.5), t)
        .losses;
  };
  ThreadPool pool(3);
  EXPECT_EQ(losses(nullptr), losses(&pool));
}

TEST(EngineSpec, ThreadsOverrideChangesModeledTime) {
  Fixture f("covtype", Layout::kDense);
  auto secs = [&](const char* text) {
    return make_engine(parse_spec(text), f.ctx)->epoch_seconds(f.w0);
  };
  const double full = secs("sync/cpu-par/dense");        // ctx default: 56
  const double small = secs("sync/cpu-par/dense:threads=2");
  EXPECT_LT(full, small);  // fewer threads, slower modeled epoch
}

TEST(EngineSpec, RegisterEngineReplacesAFamily) {
  // A new configuration is one register_engine call; drivers that
  // enumerate registered_specs() pick it up without edits. Here the
  // async/cpu-par family is re-registered with a counting wrapper.
  const std::size_t families_before = registered_specs().size();
  static int calls = 0;
  register_engine(parse_spec("async/cpu-par/sparse"),
                  [](const EngineSpec& spec, const EngineContext& ctx) {
                    ++calls;
                    AsyncCpuOptions o;
                    o.arch = spec.arch;
                    o.threads = spec.threads > 0 ? spec.threads
                                                 : ctx.cpu_threads;
                    return std::make_unique<AsyncCpuEngine>(
                        *ctx.model, ctx.data, ctx.scale, o);
                  });
  // Replacing a factory keeps the family count stable.
  EXPECT_EQ(registered_specs().size(), families_before);

  Fixture f("covtype");
  const std::unique_ptr<Engine> engine =
      make_engine(parse_spec("async/cpu-par/sparse"), f.ctx);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(engine->update(), Update::kAsync);
  EXPECT_EQ(engine->arch(), Arch::kCpuPar);
}

}  // namespace
}  // namespace parsgd
