#include "models/model.hpp"

#include "faults/injector.hpp"
#include "parallel/thread_pool.hpp"

namespace parsgd {

double Model::dataset_loss(const TrainData& data, std::span<const real_t> w,
                           bool prefer_dense) const {
  double total = 0;
  for (std::size_t i = 0; i < data.n(); ++i) {
    total += example_loss(data.example(i, prefer_dense), data.y[i], w);
  }
  return total;
}

TaskGraph::TaskId Model::batch_step_graph(
    TaskGraph& graph, BatchGraphScratch& scratch, const TrainData& data,
    std::size_t begin, std::size_t end, bool prefer_dense, real_t alpha,
    std::span<const real_t> w_read, std::span<real_t> w_write,
    TaskGraph::TaskId after) const {
  // Default: the whole batch as one task, bit-identical to batch_step.
  // Even undecomposed this removes the per-batch fork-join barrier —
  // consecutive batches chain on the dependency edge alone.
  (void)scratch;
  const TrainData* dp = &data;
  return graph.add(
      [this, dp, begin, end, prefer_dense, alpha, w_read, w_write] {
        batch_step(*dp, begin, end, prefer_dense, alpha, w_read, w_write);
      },
      {after}, "batch_step");
}

void set_straggler_hook(TaskGraph& graph, FaultInjector* faults) {
  if (faults == nullptr || !faults->active() ||
      faults->plan().straggler_prob <= 0) {
    return;
  }
  graph.set_task_hook(
      [faults](std::size_t task) { faults->chunk_hook(task); });
}

void UnitStepGraph::step(const Model& model, const TrainData& data,
                         std::size_t begin, std::size_t end,
                         bool prefer_dense, real_t alpha,
                         std::span<const real_t> w_read,
                         std::span<real_t> w_write) {
  if (!graph_.has_value()) {
    graph_.emplace(pool_ != nullptr ? *pool_ : ThreadPool::global(),
                   telemetry_);
    set_straggler_hook(*graph_, faults_);
  }
  model.batch_step_graph(*graph_, scratch_, data, begin, end, prefer_dense,
                         alpha, w_read, w_write, TaskGraph::kNoTask);
  graph_->run();
}

}  // namespace parsgd
