// The shared synchronized-mini-batch epoch runner (DESIGN.md §15): one
// implementation of "shuffled batches, one model update per batch", run
// as a sequential loop of Model::batch_step calls. Batch k+1 reads the
// model batch k wrote, so the chain has no parallel slack between
// batches; the loop is deterministic run-to-run and independent of any
// thread pool.
//
// Fault-injection semantics, per batch in shuffled batch order:
// FaultInjector::before_step (execution-only straggler delay), then
// drop_update (the injector RNG's only consumer here), then batch_step
// unless dropped, then after_update.
//
// SyncEngine and HeterogeneousEngine both run their minibatch epochs
// through this; the asynchronous simulators' Hogbatch units call
// batch_step directly, one unit at a time in their interleaved order.
#pragma once

#include <cstddef>
#include <span>

#include "common/rng.hpp"
#include "faults/injector.hpp"
#include "models/model.hpp"
#include "telemetry/session.hpp"

namespace parsgd {

struct MinibatchEpochOptions {
  std::size_t minibatch = 0;  ///< examples per update (must be > 0)
  bool use_dense = false;
};

/// Runs one synchronized mini-batch epoch in place on `w`: every example
/// is visited once, batches in an rng-shuffled order, one model update
/// per batch. `telemetry` (optional) feeds the "sync.updates" counter.
void run_minibatch_epoch(const Model& model, const TrainData& data,
                         real_t alpha, std::span<real_t> w, Rng& rng,
                         FaultInjector& faults,
                         telemetry::TelemetrySession* telemetry,
                         const MinibatchEpochOptions& opts);

}  // namespace parsgd
