#include "sgd/supervisor.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace parsgd {

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Gaps above typical are a straggler sleep, a barrier wait behind one
/// (under a synchronous step every worker's next-chunk gap inflates to
/// the straggler's delay), an epoch boundary or a descheduled worker —
/// not evidence about typical chunk time. The absolute cap deliberately
/// sits below the injected delays worth speculating against (50us x
/// units), so a fault-heavy epoch cannot teach the gate that straggling
/// is normal.
constexpr double kMaxChunkObsUs = 2000.0;
constexpr double kChunkOutlierFactor = 32.0;

void ewma_update(std::atomic<double>& cell, double obs, double weight) {
  double cur = cell.load(kRelaxed);
  double next;
  do {
    next = cur <= 0 ? obs : (1.0 - weight) * cur + weight * obs;
  } while (!cell.compare_exchange_weak(cur, next, kRelaxed));
}

}  // namespace

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

const char* to_string(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kNone: return "none";
    case DegradeLevel::kScalar: return "scalar";
  }
  return "?";
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
    c_deadline_misses_ = &reg.counter("resilience.deadline_misses");
    c_backup_wins_ = &reg.counter("resilience.backup_wins");
    c_ladder_ = &reg.counter("resilience.ladder_transitions");
    c_checkpoints_ = &reg.counter("resilience.checkpoints");
    trace_ = telemetry->trace_enabled() ? &telemetry->trace() : nullptr;
  }
}

void TrainingSupervisor::observe_chunk_us(double us) {
  if (us <= 0 || us > kMaxChunkObsUs) return;
  const double ewma = chunk_ewma_us_.load(kRelaxed);
  if (ewma > 0 && us > kChunkOutlierFactor * ewma) return;
  ewma_update(chunk_ewma_us_, us, opts_.ewma_weight);
}

double TrainingSupervisor::chunk_deadline_us() const {
  const double ewma = chunk_ewma_us_.load(kRelaxed);
  if (ewma <= 0) return 0;
  return opts_.chunk_deadline_floor_us + opts_.chunk_deadline_factor * ewma;
}

double TrainingSupervisor::gate_straggle_us(double planned_us) {
  const double deadline = chunk_deadline_us();
  if (deadline <= 0 || planned_us <= deadline) return planned_us;
  deadline_misses_.fetch_add(1, kRelaxed);
  if (c_deadline_misses_ != nullptr) c_deadline_misses_->inc();
  // Past the deadline a backup of the chunk is (speculatively) launched;
  // it takes one typical chunk time and its result wins the fixed
  // arbitration order. The straggler therefore costs at most
  // deadline + EWMA instead of its full planned delay.
  const double ewma = chunk_ewma_us_.load(kRelaxed);
  const double applied = std::min(planned_us, deadline + ewma);
  if (applied < planned_us) {
    backup_wins_.fetch_add(1, kRelaxed);
    saved_straggle_us_.fetch_add(planned_us - applied, kRelaxed);
    if (c_backup_wins_ != nullptr) c_backup_wins_->inc();
    if (trace_ != nullptr) {
      trace_->instant("resilience.backup_win",
                      {{"planned_us", planned_us}, {"applied_us", applied}});
    }
  }
  return applied;
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

void TrainingSupervisor::set_level(DegradeLevel next, bool promote,
                                   std::size_t epoch) {
  const DegradeLevel prev = level();
  if (next == prev) return;
  level_.store(next, kRelaxed);
  (promote ? ladder_up_ : ladder_down_).fetch_add(1, kRelaxed);
  if (c_ladder_ != nullptr) c_ladder_->inc();
  if (trace_ != nullptr) {
    trace_->instant(promote ? "resilience.promote" : "resilience.degrade",
                    {{"epoch", static_cast<double>(epoch)},
                     {"level", static_cast<double>(next)}});
  }
  PARSGD_WARN << "resilience: " << (promote ? "promote" : "degrade")
              << " to " << to_string(next) << " at epoch " << epoch
              << " (was " << to_string(prev) << ")";
}

double TrainingSupervisor::on_epoch_failed(bool numeric, std::size_t epoch) {
  recoveries_.fetch_add(1, kRelaxed);
  clean_streak_ = 0;
  if (c_recoveries_ != nullptr) c_recoveries_->inc();
  if (trace_ != nullptr) {
    trace_->instant("resilience.recover",
                    {{"epoch", static_cast<double>(epoch)},
                     {"numeric", numeric ? 1.0 : 0.0}});
  }
  if (active()) set_level(DegradeLevel::kScalar, /*promote=*/false, epoch);
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

void TrainingSupervisor::on_epoch_clean() {
  consecutive_numeric_ = 0;
  if (!active() || level() == DegradeLevel::kNone) {
    clean_streak_ = 0;
    return;
  }
  if (++clean_streak_ >= opts_.promote_after) {
    clean_streak_ = 0;
    set_level(DegradeLevel::kNone, /*promote=*/true, 0);
  }
}

void TrainingSupervisor::note_checkpoint() {
  checkpoints_.fetch_add(1, kRelaxed);
  if (c_checkpoints_ != nullptr) c_checkpoints_->inc();
}

ResilienceStats TrainingSupervisor::stats() const {
  ResilienceStats s;
  s.recoveries = recoveries_.load(kRelaxed);
  s.deadline_misses = deadline_misses_.load(kRelaxed);
  s.backup_wins = backup_wins_.load(kRelaxed);
  s.ladder_down = ladder_down_.load(kRelaxed);
  s.ladder_up = ladder_up_.load(kRelaxed);
  s.checkpoints = checkpoints_.load(kRelaxed);
  s.saved_straggle_us = saved_straggle_us_.load(kRelaxed);
  s.final_level = level();
  return s;
}

}  // namespace parsgd
