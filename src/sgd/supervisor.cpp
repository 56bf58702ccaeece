#include "sgd/supervisor.hpp"

namespace parsgd {

const char* to_string(ResilienceMode mode) {
  switch (mode) {
    case ResilienceMode::kOff: return "off";
    case ResilienceMode::kFull: return "full";
  }
  return "?";
}

std::optional<ResilienceMode> parse_resilience_mode(const std::string& text) {
  if (text == "off") return ResilienceMode::kOff;
  if (text == "full") return ResilienceMode::kFull;
  return std::nullopt;
}

SupervisorOptions supervisor_options_for(ResilienceMode mode) {
  SupervisorOptions o;
  o.mode = mode;
  return o;
}

TrainingSupervisor::TrainingSupervisor(
    const SupervisorOptions& opts, telemetry::TelemetrySession* telemetry)
    : opts_(opts), rng_(opts.seed) {
  if (telemetry != nullptr && telemetry->metrics_enabled() && active()) {
    telemetry::MetricsRegistry& reg = telemetry->metrics();
    c_recoveries_ = &reg.counter("resilience.recoveries");
    c_checkpoints_ = &reg.counter("resilience.checkpoints");
    trace_ = telemetry->trace_enabled() ? &telemetry->trace() : nullptr;
  }
}

void TrainingSupervisor::observe_epoch_seconds(double seconds) {
  if (!active() || seconds <= 0) return;
  const double next = epoch_ewma_s_ <= 0
                          ? seconds
                          : (1.0 - opts_.ewma_weight) * epoch_ewma_s_ +
                                opts_.ewma_weight * seconds;
  epoch_ewma_s_ = next;
}

double TrainingSupervisor::epoch_deadline_s() const {
  if (!active() || epoch_ewma_s_ <= 0) return 0;
  return opts_.epoch_deadline_floor_s +
         opts_.epoch_deadline_factor * epoch_ewma_s_;
}

double TrainingSupervisor::on_epoch_failed(bool numeric, std::size_t epoch) {
  ++stats_.recoveries;
  if (c_recoveries_ != nullptr) c_recoveries_->inc();
  if (trace_ != nullptr) {
    trace_->instant("resilience.recover",
                    {{"epoch", static_cast<double>(epoch)},
                     {"numeric", numeric ? 1.0 : 0.0}});
  }
  if (!numeric) return 1.0;  // execution-time failure: the math was fine
  ++consecutive_numeric_;
  double mult = 1.0;
  for (std::size_t c = 0; c < consecutive_numeric_; ++c) {
    mult *= opts_.alpha_backoff;
  }
  if (opts_.backoff_jitter > 0) {
    mult *= 1.0 + opts_.backoff_jitter * (2.0 * rng_.uniform() - 1.0);
  }
  return mult;
}

void TrainingSupervisor::note_checkpoint() {
  ++stats_.checkpoints;
  if (c_checkpoints_ != nullptr) c_checkpoints_->inc();
}

}  // namespace parsgd
