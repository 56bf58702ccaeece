// Asserts the telemetry subsystem's core cost claim (DESIGN.md §12):
// with telemetry disabled, the instrumented hot path costs the same as
// an uninstrumented one. The workload is the blocked-GEMM fast path
// dispatched over the thread pool — every chunk crosses the pool's
// telemetry branches — timed three ways:
//   detached  — no session attached (the normal no-telemetry run),
//   off       — a TelemetryMode::kOff session attached (all instrument
//               handles stay null; the hot path pays only branch tests),
//   metrics   — a live kMetrics session (reported, not asserted).
// Each repeat times detached and off back to back, alternating which
// goes first, and the gate is the median of those paired off/detached
// ratios: drift slower than one pair cancels inside each ratio, and the
// median discards the pairs a scheduler hiccup hit. The pool has one
// worker (plus the calling thread) so host load moves both sides of a
// pair alike; every chunk still crosses the pool's telemetry branches.
// Exit code is nonzero when the median ratio exceeds 1.01.
//
//   ./bench_micro_telemetry [--n=384] [--iters=1] [--repeats=161]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "linalg/cpu_backend.hpp"
#include "parallel/thread_pool.hpp"
#include "telemetry/session.hpp"

using namespace parsgd;

namespace {

linalg::DenseMatrix random_dense(std::size_t r, std::size_t c, Rng& rng) {
  linalg::DenseMatrix m(r, c);
  for (auto& v : m.data()) v = static_cast<real_t>(rng.normal());
  return m;
}

struct Workload {
  linalg::DenseMatrix a, b, c;
  linalg::CpuBackend be;
  CostBreakdown cost;
  std::size_t iters;

  Workload(std::size_t n, std::size_t iters_, ThreadPool* pool, Rng& rng)
      : a(random_dense(n, n, rng)), b(random_dense(n, n, rng)), c(n, n),
        be(linalg::CpuBackendOptions{.threads = 8, .pool = pool}),
        iters(iters_) {
    be.set_sink(&cost);
  }

  double run() {
    Timer t;
    for (std::size_t i = 0; i < iters; ++i) be.gemm(a, b, c, false, false);
    return t.seconds();
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 384));
  const auto iters = static_cast<std::size_t>(cli.get_int("iters", 1));
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats", 161));

  ThreadPool pool(1);
  Rng rng(11);
  Workload work(n, iters, &pool, rng);
  telemetry::TelemetrySession off(telemetry::TelemetryMode::kOff);
  telemetry::TelemetrySession metrics(telemetry::TelemetryMode::kMetrics);

  const auto timed_with = [&](telemetry::TelemetrySession* session) {
    PoolTelemetryGuard guard(pool, session);
    return work.run();
  };
  std::vector<double> off_ratios, metrics_ratios;
  work.run();  // warm-up: page in the matrices, spin up the worker
  for (std::size_t r = 0; r < repeats; ++r) {
    double t_detached = 0, t_off = 0;
    if (r % 2 == 0) {
      t_detached = work.run();
      t_off = timed_with(&off);
    } else {
      t_off = timed_with(&off);
      t_detached = work.run();
    }
    off_ratios.push_back(t_off / t_detached);
    metrics_ratios.push_back(timed_with(&metrics) / t_detached);
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
  };

  const double off_overhead = median(off_ratios) - 1.0;
  const double metrics_overhead = median(metrics_ratios) - 1.0;
  std::printf("blocked GEMM %zux%zu, %zu iters/sample, one-worker pool, "
              "median of %zu paired ratios vs detached:\n",
              n, n, iters, repeats);
  std::printf("  telemetry=off    : %+.2f%%\n", off_overhead * 100);
  std::printf("  telemetry=metrics: %+.2f%% (informational)\n",
              metrics_overhead * 100);

  if (off_overhead >= 0.01) {
    std::fprintf(stderr,
                 "FAIL: disabled-mode overhead %.2f%% >= 1%% budget\n",
                 off_overhead * 100);
    return 1;
  }
  std::printf("PASS: disabled-mode overhead %.2f%% < 1%%\n",
              off_overhead * 100);
  return 0;
}
