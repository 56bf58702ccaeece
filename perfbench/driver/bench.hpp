// Shared types of the host-time benchmark driver (see ../README.md).
//
// A workload builds its inputs from the benchmark seed (setup), then runs
// one sweep of the reproduction protocol through the library's public API
// (Study, or make_engine, search_step_size, run_training, ...). The driver
// times setups and sweeps, checks every sweep cell, and — in the traced
// run — measures the layers below the sweep by calling into them directly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "data/dataset.hpp"
#include "models/model.hpp"
#include "report/report.hpp"
#include "sgd/spec.hpp"
#include "telemetry/session.hpp"

namespace perfbench {

// ---- host measurements -------------------------------------------------

double now_s();            ///< steady clock, seconds
double process_cpu_s();    ///< user + sys CPU of the whole process
double thread_cpu_s();     ///< CPU of the calling thread
double peak_rss_mb();      ///< VmHWM of the process, MiB
/// Linear-interpolated q-quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// ---- spans -------------------------------------------------------------

/// In-memory span log of the calls the driver makes into the library.
/// Spans nest through a cursor (the driver is single-threaded); they are
/// written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
  };
  int open(std::string name);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of every span called `name`.
  double total(const std::string& name) const;

 private:
  std::vector<Span> spans_;
  int cursor_ = -1;
};

/// Scoped span; a null tracer makes it a no-op (the timed run).
class SpanScope {
 public:
  SpanScope(Tracer* t, std::string name)
      : t_(t), id_(t != nullptr ? t->open(std::move(name)) : -1) {}
  ~SpanScope() {
    if (t_ != nullptr) t_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* t_;
  int id_;
};

// ---- workloads ---------------------------------------------------------

/// What a workload run receives besides its own constants.
struct Env {
  std::uint64_t seed = 1;
  parsgd::ThreadPool* pool = nullptr;
  std::shared_ptr<parsgd::telemetry::TelemetrySession> telemetry;
  std::string work_dir;      ///< scratch files (checkpoints)
  Tracer* tracer = nullptr;  ///< null outside the traced sweep
};

/// One (task, dataset) pair: the generated data, the model and the engine
/// context every configuration of the pair is built from.
struct Group {
  parsgd::Task task = parsgd::Task::kLr;
  std::string dataset;
  std::unique_ptr<parsgd::Dataset> base;
  std::unique_ptr<parsgd::Dataset> view;  ///< MLP feature-grouped view
  std::unique_ptr<parsgd::Model> model;
  std::vector<parsgd::real_t> w0;
  parsgd::EngineContext ctx;
  bool dense = false;
  std::size_t hog_batch = 1;
  std::size_t hog_delay = 0;

  const parsgd::Dataset& data() const { return view ? *view : *base; }
  std::string key() const;  ///< e.g. "LR/covtype"
};

/// Work the sweep did, counted at the calls the driver makes.
struct Ledger {
  std::size_t runs = 0;          ///< run_training calls
  std::size_t epochs = 0;        ///< epochs those runs completed
  std::size_t useful_epochs = 0; ///< epochs of the runs each search kept
  double examples = 0;           ///< epochs x N, probes included
  /// Per group key: full-batch sparse sync epochs (one spmv^T each) and
  /// dataset_loss evaluations (one per epoch plus the initial loss).
  std::map<std::string, double> spmv_t_epochs;
  std::map<std::string, double> loss_evals;
};

/// The configuration a sweep cell settled on; the traced run drives it.
struct Chosen {
  const Group* group = nullptr;
  parsgd::EngineSpec spec;
  double alpha = 0;
};

struct Cell {
  parsgd::report::Entry entry;
  double paper_tpi_ms = -1;  ///< paper's time per iteration, <0 = none
  double paper_ttc_s = -1;   ///< paper's time to 1%, <0 = none or inf
  std::string failure;       ///< empty when every in-sweep check passed
};

struct Claim {
  std::string text;
  bool held = false;
};

struct SweepResult {
  std::vector<Cell> cells;
  std::vector<Claim> claims;
  std::vector<Chosen> chosen;
  Ledger ledger;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs of sweep(): datasets, views, models, engine
  /// contexts.
  virtual void setup(const Env& env) = 0;
  /// The timed sweep, through the library's own drivers (Study for the
  /// paper workloads); setup must have run with the same env.
  virtual SweepResult sweep(const Env& env) = 0;
  /// Builds the inputs of sweep_instrumented() and returns the seconds
  /// spent inside generate_dataset.
  virtual double setup_instrumented(const Env& env) = 0;
  /// The same sweep driven call by call from here, so that every
  /// run_training call is counted in the ledger and spanned; its cells
  /// must equal sweep()'s.
  virtual SweepResult sweep_instrumented(const Env& env) = 0;
  /// The groups setup_instrumented() built.
  virtual const std::vector<std::unique_ptr<Group>>& groups() const = 0;
  /// Workers of the benchmark's pool on a machine with `cpus` usable
  /// CPUs: nproc - 1 by default, so that with the participating caller
  /// at most nproc threads run.
  virtual std::size_t pool_workers(std::size_t cpus) const {
    return cpus > 1 ? cpus - 1 : 1;
  }
};

/// lr_sync, lr_async, mlp_hogbatch or cluster_ckpt; throws CheckError for
/// any other name.
std::unique_ptr<Workload> make_workload(const std::string& name);

// ---- per-layer probes (traced run) --------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Drives the chosen configurations, the backend, kernels, pool and
/// checkpoint I/O directly on the workload's own inputs and adds the
/// per-layer metrics to `out`. `sweep_host_s` is the traced sweep's wall
/// time (the base of the share metrics).
void probe_layers(const Workload& wl, const SweepResult& sweep,
                  const Env& env, double sweep_host_s, Metrics& out);

}  // namespace perfbench
