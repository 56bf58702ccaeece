#include "sgd/heterogeneous.hpp"

#include <algorithm>

#include "parallel/thread_pool.hpp"

namespace parsgd {

namespace {

SyncEngineOptions device_options(const HeterogeneousOptions& opts,
                                 Arch arch) {
  SyncEngineOptions o;
  o.arch = arch;
  o.use_dense = opts.use_dense;
  o.cpu_threads = opts.cpu_threads;
  o.calibration = opts.calibration;
  o.minibatch = opts.minibatch;
  o.pool = opts.pool;
  o.deterministic = opts.deterministic;
  return o;
}

}  // namespace

HeterogeneousEngine::HeterogeneousEngine(const Model& model,
                                         const TrainData& data,
                                         const ScaleContext& scale,
                                         const HeterogeneousOptions& opts)
    : scale_(scale), opts_(opts),
      gpu_engine_(model, data, scale, device_options(opts, Arch::kGpu)),
      cpu_engine_(model, data, scale,
                  device_options(opts, Arch::kCpuPar)) {
  PARSGD_CHECK(opts_.gpu_fraction <= 1.0);
}

void HeterogeneousEngine::instrument(std::span<const real_t> w_sample) {
  gpu_full_ = gpu_engine_.epoch_seconds(w_sample);
  cpu_full_ = cpu_engine_.epoch_seconds(w_sample);
  if (opts_.gpu_fraction >= 0) {
    phi_ = opts_.gpu_fraction;
  } else {
    // Gradient-pass time is proportional to the device's example share;
    // equalize: phi * gpu_full == (1 - phi) * cpu_full.
    phi_ = cpu_full_ / (gpu_full_ + cpu_full_);
  }
  const double combine =
      scale_.model_bytes * opts_.combine_seconds_per_byte;
  epoch_seconds_ = std::max(phi_ * gpu_full_, (1.0 - phi_) * cpu_full_) +
                   combine;
  cost_paper_ = gpu_engine_.last_cost();
  cost_paper_ += cpu_engine_.last_cost();
}

ThreadPool* HeterogeneousEngine::pool() const {
  return opts_.pool != nullptr ? opts_.pool : &ThreadPool::global();
}

double HeterogeneousEngine::epoch_seconds(std::span<const real_t> w_sample) {
  if (!epoch_seconds_) instrument(w_sample);
  return *epoch_seconds_;
}

void HeterogeneousEngine::set_telemetry(
    std::shared_ptr<telemetry::TelemetrySession> s) {
  Engine::set_telemetry(std::move(s));
  gpu_engine_.set_telemetry(telemetry_);
  cpu_engine_.set_telemetry(telemetry_);
}

double HeterogeneousEngine::run_epoch(std::span<real_t> w, real_t alpha,
                                      Rng& rng) {
  if (!epoch_seconds_) instrument(w);
  faults_.begin_epoch(w);
  // The combined gradient equals the single-device gradient, so the
  // functional trajectory is the plain synchronous one (full-batch or
  // mini-batch): the split only changes where gradient work executes.
  cpu_engine_.train_epoch(w, alpha, rng, faults_);
  return *epoch_seconds_;
}

}  // namespace parsgd
