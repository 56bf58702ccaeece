#include "sgd/step_path.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace parsgd {

void run_minibatch_epoch(const Model& model, const TrainData& data,
                         real_t alpha, std::span<real_t> w, Rng& rng,
                         FaultInjector& faults,
                         telemetry::TelemetrySession* telemetry,
                         const MinibatchEpochOptions& opts) {
  PARSGD_CHECK(opts.minibatch > 0, "minibatch size must be positive");
  const std::size_t n = data.n();
  const std::size_t nb = (n + opts.minibatch - 1) / opts.minibatch;
  std::vector<std::uint32_t> order(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    order[b] = static_cast<std::uint32_t>(b);
  }
  rng.shuffle(order);
  telemetry::Counter* c_updates =
      telemetry != nullptr && telemetry->metrics_enabled()
          ? &telemetry->metrics().counter("sync.updates")
          : nullptr;
  for (const std::uint32_t b : order) {
    faults.before_step();
    if (faults.drop_update()) {
      faults.after_update(w);
      continue;
    }
    const std::size_t begin = static_cast<std::size_t>(b) * opts.minibatch;
    const std::size_t end = std::min(n, begin + opts.minibatch);
    model.batch_step(data, begin, end, opts.use_dense, alpha, w, w);
    faults.after_update(w);
    if (c_updates != nullptr) c_updates->inc();
  }
}

}  // namespace parsgd
