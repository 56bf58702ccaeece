// FaultInjector — executes a FaultPlan against a running engine.
//
// One injector lives in every Engine (sgd/engine.hpp); make_engine installs
// the spec plan after construction. Engines call the hooks from
// their run_epoch paths; every hook is a no-op returning immediately when
// no plan is installed, so baseline trajectories are bit-identical — the
// injector owns a private Rng and never draws from the training stream.
//
// One-shot events (corruption, bit flip, crash) latch a fired flag, so a
// supervisor rollback past the fault re-runs the epoch clean — exactly the
// transient-fault model the recovery machinery is meant to absorb.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "matrix/types.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

/// How often each fault class actually fired (visible in tests/CLI).
struct FaultCounters {
  std::size_t corruptions = 0;  ///< NaN/Inf update corruptions
  std::size_t bitflips = 0;     ///< weight bit flips
  std::size_t stragglers = 0;   ///< straggler delays applied
  std::size_t dropped = 0;      ///< updates computed then discarded
  std::size_t poisoned = 0;     ///< poisoned updates applied (NaN weights)
  std::size_t quarantined = 0;  ///< poisoned updates caught and discarded
  std::size_t hangs = 0;        ///< hung-worker stalls
  std::size_t node_downs = 0;   ///< cluster node failures served
  std::size_t node_recoveries = 0;  ///< node shards speculatively re-run
};

class FaultInjector {
 public:
  /// Installs `plan`; `seed` decorrelates fault draws from the run seed.
  void install(const FaultPlan& plan, std::uint64_t seed);

  bool active() const { return active_ && !suspended_; }
  const FaultPlan& plan() const { return plan_; }
  const FaultCounters& counters() const { return counts_; }

  /// Temporarily silences every hook (cost-probe epochs must not consume
  /// one-shot faults or fault-rng draws).
  void set_suspended(bool on) { suspended_ = on; }

  /// Mirrors every fault firing into `faults.*` counters and (in trace
  /// mode) instant events, so injections are visible on the same timeline
  /// as the work they perturb. Null detaches. Engine::set_telemetry
  /// forwards here; the session must outlive the injector's hooks.
  void set_telemetry(telemetry::TelemetrySession* session);

  /// Turns on gradient sanitization: poisoned updates are quarantined in
  /// drop_update() (computed, caught, discarded) instead of reaching the
  /// weights through after_update(). Written while no epoch is running.
  void set_sanitize(bool on) { sanitize_ = on; }

  /// Repositions the epoch clock (run start, rollback, resume). Fired
  /// one-shot flags stay latched: a fault is transient, not replayed.
  void seek_epoch(std::size_t epoch);

  /// Epoch-start hook: throws CrashFault at the planned crash epoch,
  /// applies the one-shot weight bit flip, and serves the one-shot hung
  /// worker stall. Advances the epoch clock.
  void begin_epoch(std::span<real_t> w);

  /// Update-step hook: advances the run-global step counter by one and,
  /// at the planned corruption step, poisons all of `w` with NaN/Inf
  /// (one-shot). Unsanitized example poisoning also fires here, one
  /// bernoulli draw per step.
  void after_update(std::span<real_t> w);

  /// "No node" result of node_down_this_epoch().
  static constexpr std::size_t kNoNode = ~std::size_t{0};

  /// One-shot cluster node failure (nodedown@E[:K]): returns the downed
  /// node's index when the epoch that begin_epoch just started is the
  /// planned one, kNoNode otherwise. Shares the epoch clock with
  /// begin_epoch — cluster engines call it right after begin_epoch, once
  /// per epoch. The caller decides recovery semantics and reports back
  /// via note_node_recovered().
  std::size_t node_down_this_epoch();
  void note_node_recovered();

  /// True when this update should be computed but discarded: a lost
  /// update (drop=P), or — with sanitization on — a quarantined poisoned
  /// example (poison=P).
  bool drop_update();

  /// Extra staleness (in units) for the next async unit; 0 = on time.
  std::size_t straggle_units();

  /// Stateless straggler decision for run-global update step `step`: a
  /// pure hash of (seed, step), so it draws nothing from the fault rng.
  bool step_straggles(std::size_t step) const;

  /// Straggler seam of the CPU step loops, called once before every
  /// model update: a step that step_straggles() sleeps 50us x
  /// straggler_units. Execution-only — the update itself is unchanged,
  /// so only wall time and counters move. No-op unless a straggler plan
  /// is active.
  void before_step() {
    if (active() && plan_.straggler_prob > 0) straggle_step();
  }

  /// Straggle delay applied by before_step since install, in
  /// microseconds. The attribution ledger reads per-epoch deltas of this
  /// for its host stall bucket.
  double applied_straggle_us() const { return straggle_us_; }

 private:
  void straggle_step();  ///< before_step's slow path

  FaultPlan plan_;
  bool active_ = false;
  bool suspended_ = false;
  Rng rng_{0};
  std::uint64_t seed_ = 0;

  std::size_t epoch_ = 0;
  std::size_t step_ = 0;
  bool corrupt_fired_ = false;
  bool flip_fired_ = false;
  bool crash_fired_ = false;
  bool hang_fired_ = false;
  bool nodedown_fired_ = false;
  bool sanitize_ = false;

  FaultCounters counts_;
  double straggle_us_ = 0;  ///< applied straggle delay

  /// Telemetry mirror, cached on set_telemetry (called while no epoch is
  /// running). Null when detached.
  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::Counter* c_crashes_ = nullptr;
  telemetry::Counter* c_bitflips_ = nullptr;
  telemetry::Counter* c_corruptions_ = nullptr;
  telemetry::Counter* c_dropped_ = nullptr;
  telemetry::Counter* c_stragglers_ = nullptr;
  telemetry::Counter* c_poisoned_ = nullptr;
  telemetry::Counter* c_quarantined_ = nullptr;
  telemetry::Counter* c_hangs_ = nullptr;
  telemetry::Counter* c_node_downs_ = nullptr;
  telemetry::Counter* c_node_recoveries_ = nullptr;
};

}  // namespace parsgd
