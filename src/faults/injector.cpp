#include "faults/injector.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>


namespace parsgd {

void FaultInjector::install(const FaultPlan& plan, std::uint64_t seed) {
  plan_ = plan;
  active_ = plan.any();
  seed_ = seed;
  rng_ = Rng(seed);
  epoch_ = 0;
  step_ = 0;
  corrupt_fired_ = false;
  flip_fired_ = false;
  crash_fired_ = false;
  hang_fired_ = false;
  nodedown_fired_ = false;
  counts_ = FaultCounters{};
  straggle_us_ = 0;
}

void FaultInjector::set_telemetry(telemetry::TelemetrySession* session) {
  if (session != nullptr && session->metrics_enabled()) {
    telemetry::MetricsRegistry& reg = session->metrics();
    c_crashes_ = &reg.counter("faults.crashes");
    c_bitflips_ = &reg.counter("faults.bitflips");
    c_corruptions_ = &reg.counter("faults.corruptions");
    c_dropped_ = &reg.counter("faults.dropped");
    c_stragglers_ = &reg.counter("faults.stragglers");
    c_poisoned_ = &reg.counter("faults.poisoned");
    c_quarantined_ = &reg.counter("faults.quarantined");
    c_hangs_ = &reg.counter("faults.hangs");
    c_node_downs_ = &reg.counter("faults.node_downs");
    c_node_recoveries_ = &reg.counter("faults.node_recoveries");
    trace_ = session->trace_enabled() ? &session->trace() : nullptr;
  } else {
    c_crashes_ = nullptr;
    c_bitflips_ = nullptr;
    c_corruptions_ = nullptr;
    c_dropped_ = nullptr;
    c_stragglers_ = nullptr;
    c_poisoned_ = nullptr;
    c_quarantined_ = nullptr;
    c_hangs_ = nullptr;
    c_node_downs_ = nullptr;
    c_node_recoveries_ = nullptr;
    trace_ = nullptr;
  }
}

void FaultInjector::seek_epoch(std::size_t epoch) { epoch_ = epoch; }

void FaultInjector::begin_epoch(std::span<real_t> w) {
  if (!active()) return;
  const std::size_t e = epoch_++;
  if (!crash_fired_ && e == plan_.crash_epoch) {
    crash_fired_ = true;
    if (c_crashes_ != nullptr) c_crashes_->inc();
    if (trace_ != nullptr) {
      trace_->instant("fault.crash", {{"epoch", static_cast<double>(e)}});
    }
    throw CrashFault(e);
  }
  if (!flip_fired_ && e == plan_.flip_epoch) {
    flip_fired_ = true;
    if (plan_.flip_coord < w.size()) {
      static_assert(sizeof(real_t) == sizeof(std::uint32_t));
      std::uint32_t bits = std::bit_cast<std::uint32_t>(w[plan_.flip_coord]);
      bits ^= std::uint32_t{1} << (plan_.flip_bit & 31u);
      w[plan_.flip_coord] = std::bit_cast<real_t>(bits);
      ++counts_.bitflips;
      if (c_bitflips_ != nullptr) c_bitflips_->inc();
      if (trace_ != nullptr) {
        trace_->instant("fault.bitflip",
                        {{"epoch", static_cast<double>(e)},
                         {"coord", static_cast<double>(plan_.flip_coord)}});
      }
    }
  }
  if (!hang_fired_ && e == plan_.hang_epoch) {
    // Hung worker: a pure wall-clock stall. The supervisor notices the
    // blown epoch deadline after the fact and retries the (numerically
    // clean, deterministic) epoch, so the trajectory is unchanged.
    hang_fired_ = true;
    ++counts_.hangs;
    if (c_hangs_ != nullptr) c_hangs_->inc();
    if (trace_ != nullptr) {
      trace_->instant("fault.hang",
                      {{"epoch", static_cast<double>(e)},
                       {"ms", static_cast<double>(plan_.hang_ms)}});
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(plan_.hang_ms));
  }
}

std::size_t FaultInjector::node_down_this_epoch() {
  if (!active() || nodedown_fired_ || epoch_ == 0) return kNoNode;
  // begin_epoch advanced the clock past the epoch it just started.
  if (epoch_ - 1 != plan_.nodedown_epoch) return kNoNode;
  nodedown_fired_ = true;
  ++counts_.node_downs;
  if (c_node_downs_ != nullptr) c_node_downs_->inc();
  if (trace_ != nullptr) {
    trace_->instant("fault.nodedown",
                    {{"epoch", static_cast<double>(epoch_ - 1)},
                     {"node", static_cast<double>(plan_.nodedown_node)}});
  }
  return plan_.nodedown_node;
}

void FaultInjector::note_node_recovered() {
  ++counts_.node_recoveries;
  if (c_node_recoveries_ != nullptr) c_node_recoveries_->inc();
  if (trace_ != nullptr) trace_->instant("fault.node_recovered", {});
}

void FaultInjector::after_update(std::span<real_t> w) {
  if (!active()) return;
  const std::size_t step = step_++;
  if (plan_.poison_prob > 0 && !sanitize_ &&
      rng_.bernoulli(plan_.poison_prob)) {
    // Unsanitized poisoned examples reach the weights: one draw per
    // applied step, NaN on a hit. (Sanitized runs draw in drop_update()
    // instead — the poisoned update is caught before it is applied.)
    for (real_t& x : w) x = std::numeric_limits<real_t>::quiet_NaN();
    ++counts_.poisoned;
    if (c_poisoned_ != nullptr) c_poisoned_->inc();
    if (trace_ != nullptr) {
      trace_->instant("fault.poison", {{"step", static_cast<double>(step)}});
    }
  }
  if (corrupt_fired_ || plan_.corrupt == FaultPlan::Corrupt::kNone) return;
  if (step == plan_.corrupt_step) {
    corrupt_fired_ = true;
    const real_t bad = plan_.corrupt == FaultPlan::Corrupt::kNan
                           ? std::numeric_limits<real_t>::quiet_NaN()
                           : std::numeric_limits<real_t>::infinity();
    for (real_t& x : w) x = bad;
    ++counts_.corruptions;
    if (c_corruptions_ != nullptr) c_corruptions_->inc();
    if (trace_ != nullptr) {
      trace_->instant("fault.corrupt",
                      {{"step", static_cast<double>(plan_.corrupt_step)}});
    }
  }
}

bool FaultInjector::drop_update() {
  if (!active()) return false;
  if (plan_.drop_prob > 0 && rng_.bernoulli(plan_.drop_prob)) {
    ++counts_.dropped;
    if (c_dropped_ != nullptr) c_dropped_->inc();
    return true;
  }
  if (sanitize_ && plan_.poison_prob > 0 &&
      rng_.bernoulli(plan_.poison_prob)) {
    ++counts_.quarantined;
    if (c_quarantined_ != nullptr) c_quarantined_->inc();
    if (trace_ != nullptr) trace_->instant("fault.quarantine", {});
    return true;
  }
  return false;
}

std::size_t FaultInjector::straggle_units() {
  if (!active() || plan_.straggler_prob <= 0) return 0;
  if (!rng_.bernoulli(plan_.straggler_prob)) return 0;
  ++counts_.stragglers;
  if (c_stragglers_ != nullptr) c_stragglers_->inc();
  return 1 + rng_.uniform_index(plan_.straggler_units);
}

bool FaultInjector::step_straggles(std::size_t step) const {
  if (!active() || plan_.straggler_prob <= 0) return false;
  std::uint64_t h = seed_ ^ (0x9e3779b97f4a7c15ULL * (step + 1));
  const std::uint64_t r = splitmix64(h);
  return static_cast<double>(r >> 11) * 0x1.0p-53 < plan_.straggler_prob;
}

void FaultInjector::straggle_step() {
  if (!step_straggles(step_)) return;
  ++counts_.stragglers;
  if (c_stragglers_ != nullptr) c_stragglers_->inc();
  if (trace_ != nullptr) {
    trace_->instant("fault.straggle", {{"step", static_cast<double>(step_)}});
  }
  const double delay_us = 50.0 * static_cast<double>(plan_.straggler_units);
  straggle_us_ += delay_us;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::micro>(delay_us));
}

}  // namespace parsgd
