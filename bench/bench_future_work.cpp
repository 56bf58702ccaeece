// The paper's future-work direction of heterogeneous CPU+GPU execution
// (§VI; the authors' follow-up, arXiv:2004.08771), measured; low
// precision is in bench_ablation_models. Heterogeneous synchronous SGD:
// sweep the GPU work share phi and show the combined epoch beating both
// single devices at the equalizing split.
//
//   ./bench_future_work [--scale=200]
#include <iostream>

#include "bench_common.hpp"
#include "data/generator.hpp"
#include "models/linear.hpp"
#include "sgd/heterogeneous.hpp"
#include "sgd/spec.hpp"

using namespace parsgd;
using namespace parsgd::benchutil;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 200.0);

  // ---- Heterogeneous CPU+GPU ----
  std::cout << "=== future work: heterogeneous CPU+GPU sync SGD ===\n\n";
  {
    GeneratorOptions gen;
    gen.scale = scale;
    gen.seed = 42;
    const Dataset ds = generate_dataset("rcv1", gen);
    LogisticRegression lr(ds.d());
    const EngineContext ctx = make_engine_context(ds, lr, Layout::kSparse);
    const auto w0 = lr.init_params(5);

    TableWriter t({"gpu share phi", "epoch time (ms)",
                   "vs best single device"});
    double gpu_full = 0, cpu_full = 0, best_single = 0;
    for (const double phi : {0.0, 0.25, 0.5, 0.75, 1.0, -1.0}) {
      EngineSpec spec = parse_spec("sync/cpu+gpu/sparse");
      spec.gpu_fraction = phi;
      const std::unique_ptr<Engine> engine = make_engine(spec, ctx);
      // The phi/full-device reporting is specific to the heterogeneous
      // engine, not part of the Engine interface.
      auto* hetero = dynamic_cast<HeterogeneousEngine*>(engine.get());
      auto w = w0;
      Rng rng(3);
      const double secs = engine->run_epoch(w, real_t(0.1), rng);
      if (best_single == 0 && hetero != nullptr) {
        gpu_full = hetero->gpu_epoch_seconds_full();
        cpu_full = hetero->cpu_epoch_seconds_full();
        best_single = std::min(gpu_full, cpu_full);
      }
      t.add_row({phi < 0 && hetero != nullptr
                     ? "auto (" + fmt_sig3(hetero->gpu_fraction()) + ")"
                     : fmt_sig3(phi),
                 fmt_msec(secs), fmt_sig3(best_single / secs) + "x"});
    }
    t.print(std::cout);
    std::printf("\nsingle devices: gpu %s, cpu-par %s; the equalizing "
                "split wins by the Omnivore-style bound 1 + min/max = "
                "%.2fx\n",
                fmt_msec(gpu_full).c_str(), fmt_msec(cpu_full).c_str(),
                1.0 + std::min(gpu_full, cpu_full) /
                          std::max(gpu_full, cpu_full));
  }
  return 0;
}
