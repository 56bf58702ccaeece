// TrainingSupervisor — the policy-driven resilience layer under
// run_training (DESIGN.md §16). It subsumes the single-shot divergence
// rollback of §11 and makes every engine self-healing along four pillars:
//
//  1. Deadline-driven speculative re-execution: seeded EWMAs of observed
//     chunk inter-arrival gaps and epoch host times yield deadlines; a
//     straggling gradient chunk past its deadline is capped at the cost
//     of a deterministic backup task (which wins the fixed arbitration
//     race by construction — both compute the same chunk, so only wall
//     time moves). The seam is faults::StraggleGate, reached through the
//     pool's ChunkHookGuard and the step loops' FaultInjector::before_step.
//  2. Graceful degradation ladder: an epoch failure steps the CPU
//     backends' SIMD dispatch down to the scalar reference; K clean
//     epochs re-promote it. Every transition is logged, counted and
//     traced.
//  3. Retry with seeded exponential backoff and a bounded recovery
//     budget (replacing §11's fixed alpha×0.1), plus gradient
//     sanitization that quarantines poisoned (NaN-producing) examples at
//     the injector before they reach the weights.
//  4. Auto-checkpoint cadence (count- or time-based) with crash-resume,
//     so a crash@E fault plus restart round-trips bit-identically.
//
// Policy is declarative: the spec grammar's resilience=off|full key maps
// to SupervisorOptions via supervisor_options_for(). `off` keeps the
// supervisor detached entirely (bit-identical to the pre-supervisor
// seed); `full` enables all four pillars.
//
// Everything the supervisor does to *time* (deadlines, backup wins) is
// wall-clock only; everything it does to the *trajectory* (rollback,
// alpha backoff, ladder rungs) is deterministic — rungs only move between
// epochs and both rungs are bit-identical under det=on by the §14
// contract.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

/// The declarative resilience policy knob (spec key `resilience=`).
enum class ResilienceMode : std::uint8_t { kOff = 0, kFull = 1 };

const char* to_string(ResilienceMode mode);
std::optional<ResilienceMode> parse_resilience_mode(const std::string& text);

/// Degradation-ladder rungs, ordered from fastest to safest.
enum class DegradeLevel : std::uint8_t {
  kNone = 0,    ///< full speed: SIMD dispatch as configured
  kScalar = 1,  ///< SIMD dispatch pinned to the scalar reference
};

const char* to_string(DegradeLevel level);

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

  /// Clean epochs per re-promotion rung of the degradation ladder.
  std::size_t promote_after = 3;

  /// Deadlines: floor + factor × EWMA of the observed durations. The
  /// epoch deadline only arms once an epoch has been observed; the chunk
  /// deadline once a chunk gap has.
  double epoch_deadline_factor = 8.0;
  double epoch_deadline_floor_s = 0.05;
  double chunk_deadline_factor = 4.0;
  double chunk_deadline_floor_us = 25.0;
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
  std::size_t deadline_misses = 0;   ///< chunk delays past deadline
  std::size_t backup_wins = 0;       ///< straggles capped by a backup
  std::size_t ladder_down = 0;       ///< degradations applied
  std::size_t ladder_up = 0;         ///< re-promotions applied
  std::size_t quarantined = 0;       ///< poisoned updates sanitized away
  std::size_t checkpoints = 0;       ///< auto-checkpoints written
  std::size_t node_recoveries = 0;   ///< cluster shards speculatively re-run
  double saved_straggle_us = 0;      ///< injected delay avoided by backups
  DegradeLevel final_level = DegradeLevel::kNone;

  bool any() const {
    return recoveries > 0 || deadline_misses > 0 || backup_wins > 0 ||
           ladder_down > 0 || ladder_up > 0 || quarantined > 0 ||
           checkpoints > 0 || node_recoveries > 0;
  }
};

/// One per run_training call, attached to the engine (and, as a
/// StraggleGate, to its fault injector) for the duration of the run.
/// Thread-safety: the gate methods and level() may be called from pool
/// workers; everything else runs on the driving thread between epochs.
class TrainingSupervisor final : public StraggleGate {
 public:
  TrainingSupervisor(const SupervisorOptions& opts,
                     telemetry::TelemetrySession* telemetry);

  const SupervisorOptions& options() const { return opts_; }
  /// All four pillars are on exactly when this is true.
  bool active() const { return opts_.mode != ResilienceMode::kOff; }

  /// Current degradation rung; consulted by engines at epoch start.
  DegradeLevel level() const { return level_.load(std::memory_order_relaxed); }
  /// Jumps the ladder (manual override / test seam); not counted as a
  /// transition.
  void force_level(DegradeLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }

  // StraggleGate (pillar 1) — called from pool workers.
  void observe_chunk_us(double us) override;
  double gate_straggle_us(double planned_us) override;
  /// Current chunk deadline in microseconds; <= 0 until a gap has been
  /// observed (the gate passes delays through unchanged until then).
  double chunk_deadline_us() const;
  double chunk_ewma_us() const {
    return chunk_ewma_us_.load(std::memory_order_relaxed);
  }

  /// Feeds the epoch-duration EWMA (clean epochs only).
  void observe_epoch_seconds(double seconds);
  /// Current epoch deadline in seconds; <= 0 until armed.
  double epoch_deadline_s() const;
  bool epoch_deadline_exceeded(double host_seconds) const {
    const double deadline = epoch_deadline_s();
    return deadline > 0 && host_seconds > deadline;
  }

  /// One failed epoch (pillars 2+3): records the recovery, steps the
  /// ladder down, and returns the factor to scale alpha_scale by for the
  /// retry — seeded exponential backoff, 1.0 for execution-time
  /// (non-numeric) failures.
  double on_epoch_failed(bool numeric, std::size_t epoch);
  /// One clean epoch: resets the failure streak and, after promote_after
  /// consecutive clean epochs on a degraded rung, re-promotes one rung.
  void on_epoch_clean();
  /// One auto-checkpoint written (pillar 4 bookkeeping).
  void note_checkpoint();

  ResilienceStats stats() const;

 private:
  void set_level(DegradeLevel next, bool promote, std::size_t epoch);

  SupervisorOptions opts_;
  Rng rng_;  ///< backoff jitter only; never the training stream

  std::atomic<DegradeLevel> level_{DegradeLevel::kNone};
  std::atomic<double> chunk_ewma_us_{0};
  double epoch_ewma_s_ = 0;
  std::size_t consecutive_numeric_ = 0;
  std::size_t clean_streak_ = 0;

  std::atomic<std::size_t> recoveries_{0};
  std::atomic<std::size_t> deadline_misses_{0};
  std::atomic<std::size_t> backup_wins_{0};
  std::atomic<std::size_t> ladder_down_{0};
  std::atomic<std::size_t> ladder_up_{0};
  std::atomic<std::size_t> checkpoints_{0};
  std::atomic<double> saved_straggle_us_{0};

  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::Counter* c_recoveries_ = nullptr;
  telemetry::Counter* c_deadline_misses_ = nullptr;
  telemetry::Counter* c_backup_wins_ = nullptr;
  telemetry::Counter* c_ladder_ = nullptr;
  telemetry::Counter* c_checkpoints_ = nullptr;
};

}  // namespace parsgd
