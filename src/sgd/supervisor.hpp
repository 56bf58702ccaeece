// TrainingSupervisor — the policy-driven resilience layer under
// run_training (DESIGN.md §16). It subsumes the single-shot divergence
// rollback of §11 and keeps only what changes or guards a trajectory:
//
//  1. Rollback with seeded exponential backoff under a bounded recovery
//     budget (replacing §11's fixed alpha×0.1), plus gradient
//     sanitization that quarantines poisoned (NaN-producing) examples at
//     the injector before they reach the weights.
//  2. An epoch deadline (floor + factor × EWMA of clean epoch host
//     times): a numerically clean epoch that blows it (a hung worker) is
//     rolled back and retried with the step size unchanged.
//  3. Auto-checkpoint bookkeeping (count- or time-based cadence) with
//     crash-resume, so a crash@E fault plus restart round-trips
//     bit-identically.
//
// Policy is declarative: the spec grammar's resilience=off|full key maps
// to SupervisorOptions via supervisor_options_for(). `off` keeps the
// supervisor detached entirely (bit-identical to the pre-supervisor
// seed); `full` enables everything above.
//
// The epoch deadline acts on wall time only: its retry is deterministic,
// so the trajectory is the same whether or not it fired. Rollback and
// backoff are the supervisor's only trajectory effects. Everything here
// runs on the driving thread between epochs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

/// The declarative resilience policy knob (spec key `resilience=`).
enum class ResilienceMode : std::uint8_t { kOff = 0, kFull = 1 };

const char* to_string(ResilienceMode mode);
std::optional<ResilienceMode> parse_resilience_mode(const std::string& text);

struct SupervisorOptions {
  ResilienceMode mode = ResilienceMode::kOff;

  /// Retry policy: on the c-th consecutive numeric failure the step size
  /// is scaled by alpha_backoff^c, times a seeded jitter uniform on
  /// [1-backoff_jitter, 1+backoff_jitter]. Execution-time failures
  /// (deadline) retry with the step size unchanged.
  double alpha_backoff = 0.5;
  double backoff_jitter = 0.1;
  /// Total rollback budget for the run (numeric + deadline recoveries).
  std::size_t recovery_budget = 8;

  /// Epoch deadline: floor + factor × EWMA of the clean epoch host
  /// times; armed once an epoch has been observed.
  double epoch_deadline_factor = 8.0;
  double epoch_deadline_floor_s = 0.05;
  /// EWMA weight of the newest observation.
  double ewma_weight = 0.25;

  /// Seeds the backoff jitter; decorrelated from the run seed by the
  /// caller (run_training xors the TrainOptions seed in).
  std::uint64_t seed = 0x5EED5EEDULL;
};

/// The preset each spec-grammar mode maps to.
SupervisorOptions supervisor_options_for(ResilienceMode mode);

/// Counters the supervisor accumulated over one run; surfaced on
/// RunResult, the heartbeat line and the RunReport `resilience` slice.
struct ResilienceStats {
  std::size_t recoveries = 0;        ///< rollback+retry events
  std::size_t quarantined = 0;       ///< poisoned updates sanitized away
  std::size_t checkpoints = 0;       ///< auto-checkpoints written
  std::size_t node_recoveries = 0;   ///< cluster shards speculatively re-run

  bool any() const {
    return recoveries > 0 || quarantined > 0 || checkpoints > 0 ||
           node_recoveries > 0;
  }
};

/// One per run_training call, attached to the engine for the duration of
/// the run. Single-threaded: the driving thread calls it between epochs.
class TrainingSupervisor {
 public:
  TrainingSupervisor(const SupervisorOptions& opts,
                     telemetry::TelemetrySession* telemetry);

  const SupervisorOptions& options() const { return opts_; }
  /// Rollback, sanitization and the epoch deadline are on exactly when
  /// this is true.
  bool active() const { return opts_.mode != ResilienceMode::kOff; }

  /// Feeds the epoch-duration EWMA (clean epochs only).
  void observe_epoch_seconds(double seconds);
  /// Current epoch deadline in seconds; <= 0 until armed.
  double epoch_deadline_s() const;
  bool epoch_deadline_exceeded(double host_seconds) const {
    const double deadline = epoch_deadline_s();
    return deadline > 0 && host_seconds > deadline;
  }

  /// One failed epoch: records the recovery and returns the factor to
  /// scale alpha_scale by for the retry — seeded exponential backoff,
  /// 1.0 for execution-time (non-numeric) failures.
  double on_epoch_failed(bool numeric, std::size_t epoch);
  /// One clean epoch: resets the numeric failure streak.
  void on_epoch_clean() { consecutive_numeric_ = 0; }
  /// One auto-checkpoint written.
  void note_checkpoint();

  const ResilienceStats& stats() const { return stats_; }

 private:
  SupervisorOptions opts_;
  Rng rng_;  ///< backoff jitter only; never the training stream

  double epoch_ewma_s_ = 0;
  std::size_t consecutive_numeric_ = 0;
  ResilienceStats stats_;

  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::Counter* c_recoveries_ = nullptr;
  telemetry::Counter* c_checkpoints_ = nullptr;
};

}  // namespace parsgd
