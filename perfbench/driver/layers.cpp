// Per-layer probes of the traced run. Every number here is timed from
// outside, around a call into a public function, on the workload's own
// inputs: the engine epochs of the configurations the sweep chose, the
// CPU backend primitives, the SIMD kernels, the thread pool and the
// checkpoint reader/writer.
#include <algorithm>
#include <filesystem>
#include <functional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "kernel/kernels.hpp"
#include "linalg/cpu_backend.hpp"
#include "models/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "sgd/async_engine.hpp"
#include "sgd/checkpoint.hpp"

namespace perfbench {

using namespace parsgd;

namespace {

/// Seconds of one call of `fn`.
double timed(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Median seconds of `rounds` calls of `fn`.
double median_time(int rounds, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < rounds; ++i) t.push_back(timed(fn));
  return median(t);
}

struct DeviceTotals {
  double cycles = 0;
  double warps = 0;
};

DeviceTotals device_totals(const Engine& engine) {
  DeviceTotals d;
  if (const gpusim::Device* dev = engine.device()) {
    for (const auto& [name, s] : dev->named_stats()) {
      d.cycles += s.sm_cycles;
      d.warps += s.warps;
    }
  }
  return d;
}

/// A fixed number of epochs of each chosen configuration, driven through
/// Engine::run_epoch, Model::dataset_loss and Engine::epoch_seconds so the
/// three separate.
void drive_epochs(const SweepResult& sweep, const Env& env, Metrics& m) {
  constexpr std::size_t kEpochs = 3;
  std::vector<double> epoch_ms, loss_ms, instrument_ms, snapshot_ms,
      inplace_ms, gpu_instrument_ms, cluster_ms;
  double gpu_host_ns = 0, gpu_warps = 0, gpu_cycles = 0;
  for (const Chosen& c : sweep.chosen) {
    if (c.alpha <= 0) continue;  // the search found no usable step
    const Group& g = *c.group;
    EngineContext ctx = g.ctx;
    ctx.telemetry = nullptr;
    ctx.pool = env.pool;
    const std::unique_ptr<Engine> engine = make_engine(c.spec, ctx);
    const auto* async_cpu = dynamic_cast<const AsyncCpuEngine*>(engine.get());
    const bool par = c.spec.arch == Arch::kCpuPar && async_cpu != nullptr;
    std::vector<real_t> w = g.w0;
    Rng rng(env.seed);
    const DeviceTotals before = device_totals(*engine);
    double gpu_epoch_s = 0;
    for (std::size_t e = 0; e < kEpochs; ++e) {
      const double s = timed([&] {
        engine->run_epoch(w, static_cast<real_t>(c.alpha), rng);
      });
      epoch_ms.push_back(s * 1e3);
      if (par) {
        (async_cpu->sim().snapshot_mode() ? snapshot_ms : inplace_ms)
            .push_back(s * 1e3);
      }
      if (c.spec.arch == Arch::kCluster) cluster_ms.push_back(s * 1e3);
      if (engine->device() != nullptr) gpu_epoch_s += s;
      loss_ms.push_back(
          1e3 * timed([&] { g.model->dataset_loss(g.ctx.data, w, g.dense); }));
    }
    const DeviceTotals after = device_totals(*engine);
    const double inst = 1e3 * timed([&] { engine->epoch_seconds(w); });
    instrument_ms.push_back(inst);
    if (engine->device() != nullptr) {
      gpu_instrument_ms.push_back(inst);
      gpu_host_ns += gpu_epoch_s * 1e9;
      gpu_warps += after.warps - before.warps;
      gpu_cycles += after.cycles - before.cycles;
    }
  }
  m["engine.epoch_ms.p50"] = {quantile(epoch_ms, 0.5), "ms"};
  m["engine.epoch_ms.p90"] = {quantile(epoch_ms, 0.9), "ms"};
  m["engine.instrument_ms"] = {median(instrument_ms), "ms"};
  m["model.loss_ms.p50"] = {median(loss_ms), "ms"};
  m["async.snapshot_epoch_ms"] = {median(snapshot_ms), "ms"};
  m["async.inplace_epoch_ms"] = {median(inplace_ms), "ms"};
  m["gpusim.instrument_ms"] = {median(gpu_instrument_ms), "ms"};
  m["gpusim.host_ns_per_warp"] = {gpu_warps > 0 ? gpu_host_ns / gpu_warps : 0,
                                  "ns"};
  m["gpusim.cycles"] = {gpu_cycles, "cycles"};
  m["cluster.epoch_ms.p50"] = {median(cluster_ms), "ms"};
}

/// A batch of the first rows of the group's dense matrix.
DenseMatrix first_rows(const DenseMatrix& x, std::size_t rows) {
  rows = std::min(rows, x.rows());
  DenseMatrix out(rows, x.cols());
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(x.row(r).begin(), x.row(r).end(), out.row(r).begin());
  }
  return out;
}

/// CPU backend primitives on the groups' matrices, built like the
/// engines' trajectory backend (injected pool, det=on). One round calls
/// each primitive once per group; the metrics are medians over rounds.
void probe_backend(const Workload& wl, const SweepResult& sweep,
                   const Env& env, double sweep_host_s, Metrics& m) {
  constexpr int kRounds = 15;
  linalg::CpuBackend be(
      linalg::CpuBackendOptions{.pool = env.pool, .deterministic = true});
  CostBreakdown cost;  // the backend charges every primitive to a sink
  be.set_sink(&cost);
  std::vector<double> spmv, spmv_t, gemv_t, gemm;
  double nnz = 0;
  double spmv_t_share_s = 0, loss_share_s = 0;
  for (const auto& gp : wl.groups()) {
    const Group& g = *gp;
    const Dataset& ds = g.data();
    nnz += static_cast<double>(ds.x.nnz());
    std::vector<real_t> wd(ds.d(), real_t(0.01)), zn(ds.n(), real_t(0.5));
    const double t_spmv_t =
        median_time(kRounds, [&] { be.spmv(ds.x, zn, wd, true); });
    spmv_t.push_back(t_spmv_t);
    spmv.push_back(median_time(kRounds, [&] { be.spmv(ds.x, wd, zn, false); }));
    if (ds.x_dense) {
      std::vector<real_t> out(ds.d());
      gemv_t.push_back(median_time(
          kRounds, [&] { be.gemv(*ds.x_dense, zn, out, true); }));
    }
    if (const auto* mlp = dynamic_cast<const Mlp*>(g.model.get());
        mlp != nullptr && ds.x_dense) {
      const DenseMatrix a = first_rows(*ds.x_dense, g.hog_batch);
      const DenseMatrix b(a.cols(), mlp->layers().at(1), real_t(0.01));
      DenseMatrix c(a.rows(), b.cols());
      gemm.push_back(
          median_time(kRounds, [&] { be.gemm(a, b, c, false, false); }));
    }
    // Shares of the traced sweep: measured cost per call x calls counted.
    const auto epochs = sweep.ledger.spmv_t_epochs.find(g.key());
    if (epochs != sweep.ledger.spmv_t_epochs.end()) {
      spmv_t_share_s += epochs->second * t_spmv_t;
    }
    const auto evals = sweep.ledger.loss_evals.find(g.key());
    if (evals != sweep.ledger.loss_evals.end()) {
      loss_share_s += evals->second * median_time(5, [&] {
                        g.model->dataset_loss(g.ctx.data, g.w0, g.dense);
                      });
    }
  }
  auto sum = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return s;
  };
  m["linalg.spmv_t_us.p50"] = {sum(spmv_t) * 1e6, "us"};
  m["linalg.spmv_t_ns_per_nnz"] = {nnz > 0 ? sum(spmv_t) * 1e9 / nnz : 0, "ns"};
  m["linalg.spmv_us.p50"] = {sum(spmv) * 1e6, "us"};
  m["linalg.gemv_t_us.p50"] = {sum(gemv_t) * 1e6, "us"};
  m["linalg.gemm_us.p50"] = {sum(gemm) * 1e6, "us"};
  m["linalg.spmv_t_share"] = {spmv_t_share_s / sweep_host_s, "ratio"};
  m["model.loss_share"] = {loss_share_s / sweep_host_s, "ratio"};
}

/// Per-example and per-batch model steps on the groups' data.
void probe_model(const Workload& wl, Metrics& m) {
  double step_s = 0, steps = 0, batch_s = 0, batches = 0;
  for (const auto& gp : wl.groups()) {
    const Group& g = *gp;
    const TrainData& data = g.ctx.data;
    std::vector<real_t> w = g.w0, w2 = g.w0;
    const std::size_t n = std::min<std::size_t>(data.n(), 4096);
    step_s += timed([&] {
      for (std::size_t i = 0; i < n; ++i) {
        g.model->example_step(data.example(i, g.dense), data.y[i],
                              real_t(1e-3), w, w, nullptr);
      }
    });
    steps += static_cast<double>(n);
    const std::size_t b = std::min(std::max<std::size_t>(g.hog_batch, 64),
                                   data.n());
    for (int r = 0; r < 20; ++r) {
      batch_s += timed([&] {
        g.model->batch_step(data, 0, b, g.dense, real_t(1e-3), w, w2);
      });
      batches += 1;
    }
  }
  m["model.example_step_ns"] = {step_s * 1e9 / steps, "ns"};
  m["model.batch_step_us"] = {batch_s * 1e6 / batches, "us"};
}

/// The SIMD kernel table as the det=on engines use it: spmv_row and dot
/// pinned to the scalar fold, axpy and gemm_tile dispatched.
void probe_kernels(const Workload& wl, Metrics& m) {
  const kernel::Kernels& simd = kernel::active_kernels();
  const kernel::Kernels& det = kernel::scalar_kernels();
  const Dataset* widest = nullptr;
  for (const auto& g : wl.groups()) {
    if (widest == nullptr || g->data().x.nnz() > widest->x.nnz()) {
      widest = &g->data();
    }
  }
  const CsrMatrix& x = widest->x;
  // Calls through the table's function pointers are opaque to the
  // optimizer, so unused results do not let it drop them.
  std::vector<real_t> v(x.cols(), real_t(0.5)), y(x.cols(), real_t(0.25));
  const double rows_s = median_time(7, [&] {
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const auto rv = x.row(r);
      det.spmv_row(rv.val.data(), rv.idx.data(), rv.nnz(), v.data());
    }
  });
  m["kernel.spmv_row_ns"] = {rows_s * 1e9 / static_cast<double>(x.rows()),
                             "ns"};
  m["kernel.axpy_ns"] = {
      1e9 * median_time(15, [&] {
        simd.axpy(real_t(1e-3), v.data(), y.data(), v.size());
      }),
      "ns"};
  m["kernel.dot_ns"] = {
      1e9 * median_time(15, [&] { det.dot(v.data(), y.data(), v.size()); }),
      "ns"};
  constexpr std::size_t kKc = 128, kNc = 64;
  std::vector<real_t> a(kKc, real_t(0.5)), b(kKc * kNc, real_t(0.25));
  std::vector<double> acc(kNc, 0);
  const double tile_s = median_time(7, [&] {
    for (int i = 0; i < 1000; ++i) {
      simd.gemm_tile(a.data(), b.data(), kNc, acc.data(), kKc, kNc);
    }
  });
  m["kernel.gemm_tile_ns"] = {tile_s * 1e9 / 1000, "ns"};
}

/// Empty parallel_for round trips on the benchmark's pool.
void probe_pool(const Env& env, double sweep_host_s, Metrics& m) {
  constexpr int kSamples = 2000;
  ThreadPool& pool = *env.pool;
  std::vector<double> us;
  for (int i = 0; i < kSamples; ++i) {
    us.push_back(1e6 * timed([&] {
      pool.parallel_for(pool.size() + 1, [](std::size_t, std::size_t) {});
    }));
  }
  const double p50 = quantile(us, 0.5);
  m["pool.dispatch_us.p50"] = {p50, "us"};
  m["pool.dispatch_us.p99"] = {quantile(us, 0.99), "us"};
  // Share of the traced sweep: round trip x jobs the registry counted.
  m["parallel.dispatch_share"] = {
      m.at("pool.jobs").value * p50 * 1e-6 / sweep_host_s, "ratio"};
}

/// Checkpoint write/read of the widest model of the workload.
void probe_checkpoint(const Workload& wl, const Env& env, Metrics& m) {
  const Group* widest = nullptr;
  for (const auto& g : wl.groups()) {
    if (widest == nullptr || g->w0.size() > widest->w0.size()) widest = g.get();
  }
  TrainCheckpoint ck;
  ck.w = widest->w0;
  ck.next_epoch = 1;
  const std::string path = env.work_dir + "/probe.ckpt";
  const double save = median_time(5, [&] { save_checkpoint(path, ck); });
  const double load = median_time(3, [&] { ck = load_checkpoint(path); });
  m["ckpt.save_ms.p50"] = {save * 1e3, "ms"};
  m["ckpt.load_ms"] = {load * 1e3, "ms"};
  m["ckpt.bytes"] = {static_cast<double>(std::filesystem::file_size(path)),
                     "bytes"};
}

}  // namespace

void probe_layers(const Workload& wl, const SweepResult& sweep,
                  const Env& env, double sweep_host_s, Metrics& out) {
  drive_epochs(sweep, env, out);
  probe_backend(wl, sweep, env, sweep_host_s, out);
  probe_model(wl, out);
  probe_kernels(wl, out);
  probe_pool(env, sweep_host_s, out);
  probe_checkpoint(wl, env, out);
}

}  // namespace perfbench
