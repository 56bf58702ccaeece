// The asyncsim conflict ledger and Hogwild loop-cost calibration, shared
// by AsyncSim (async_sim.cpp) and ReplicatedHogwild (replication.cpp) so
// both count write conflicts and bookkeeping flops the same way.
// Internal to asyncsim: nothing outside src/asyncsim includes it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "asyncsim/async_sim.hpp"

namespace parsgd::detail {

/// Per-window conflict ledger. Callers record, per *unit of work*
/// (example or mini-batch), the distinct cache lines that unit wrote. A
/// line written by >= 2 distinct workers within the window ping-pongs:
/// between two consecutive units of one worker, other workers have
/// reclaimed the line, so every unit's touch of a contended line costs one
/// ownership transfer. conflicts() therefore returns the number of
/// unit-line write events on multi-writer lines. (Touches within one unit
/// are deduplicated by the caller — they hit an already-owned line.)
class ConflictWindow {
 public:
  void record(int worker, std::uint32_t line) {
    auto& e = lines_[line];
    if (e.last_worker != worker) {
      if (e.last_worker != -1) e.multi_writer = true;
      e.last_worker = worker;
    }
    ++e.events;
  }

  double conflicts() const {
    double total = 0;
    for (const auto& [line, e] : lines_) {
      if (e.multi_writer) total += e.events;
    }
    return total;
  }

  void clear() { lines_.clear(); }

 private:
  struct Entry {
    int last_worker = -1;
    bool multi_writer = false;
    double events = 0;
  };
  std::unordered_map<std::uint32_t, Entry> lines_;
};

/// Distinct model lines touched by one unit's updates.
inline void touched_lines(const std::vector<index_t>& touched,
                          std::vector<std::uint32_t>& lines) {
  lines.clear();
  for (const index_t j : touched) lines.push_back(model_line(j));
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
}

// Hogwild inner-loop bookkeeping cost in scalar-flop equivalents,
// calibrated to Table III's cpu-seq rows (which are consistent with a
// flat ~150 ns/example for RNG/indexing/branches plus ~5 ns per nonzero
// of dependent-load latency): 600 flops/example + 16 extra flops/nnz at
// the model's 2 scalar flops/cycle.
constexpr double kLoopFlopsPerExample = 600.0;
constexpr double kLoopFlopsPerNnz = 16.0;

}  // namespace parsgd::detail
