// The four workloads: the Table II / Table III protocols (LR and MLP) and
// the cluster PS-vs-all-reduce sweep with checkpoints, fault and resume.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench.hpp"
#include "common/check.hpp"
#include "data/generator.hpp"
#include "data/mlp_view.hpp"
#include "models/linear.hpp"
#include "models/mlp.hpp"
#include "paper_reference.hpp"
#include "sgd/checkpoint.hpp"
#include "sgd/convergence.hpp"
#include "sgd/stepsize.hpp"

namespace perfbench {

using namespace parsgd;

// ---- host measurements -------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  PARSGD_CHECK(false, "VmHWM missing from /proc/self/status");
  return 0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

// ---- spans -------------------------------------------------------------

int Tracer::open(std::string name) {
  spans_.push_back({std::move(name), cursor_, now_s(), 0});
  cursor_ = static_cast<int>(spans_.size()) - 1;
  return cursor_;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  cursor_ = spans_[static_cast<std::size_t>(id)].parent;
}

double Tracer::total(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.end_s - s.start_s;
  }
  return t;
}

std::string Group::key() const {
  return std::string(to_string(task)) + "/" + dataset;
}

namespace {

constexpr Arch kPaperArchs[] = {Arch::kCpuSeq, Arch::kCpuPar, Arch::kGpu};

/// Protocol constants of one workload: the paper's step-size methodology
/// (§IV-A) at a scale that fits many sweeps into one run.
struct Protocol {
  double scale = 400;
  std::size_t probe_epochs = 3;
  std::size_t keep_candidates = 2;
  std::size_t full_epochs_sync = 30;
  std::size_t full_epochs_async = 20;
  std::vector<double> grid = {1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                              1e-1, 1.0,  10.0, 100.0};
  double mlp_extra_scale = 4.0;
  std::size_t hogbatch_paper_batch = 512;
  int cpu_threads = 56;  ///< the paper machine's thread count
  /// Workers of the benchmark's pool; 0 = nproc - 1.
  std::size_t pool_workers = 0;
};

/// Study's options for a protocol: the same grid, epochs and scales the
/// instrumented replay below uses.
StudyOptions study_options(const Protocol& p, const Env& env) {
  StudyOptions o;
  o.scale = p.scale;
  o.seed = env.seed;
  o.cpu_threads = p.cpu_threads;
  o.pool = env.pool;
  o.telemetry = env.telemetry;
  o.probe_epochs = p.probe_epochs;
  o.keep_candidates = p.keep_candidates;
  o.full_epochs_linear = p.full_epochs_async;
  o.full_epochs_linear_sync = p.full_epochs_sync;
  o.full_epochs_mlp = p.full_epochs_async;
  o.full_epochs_mlp_sync = p.full_epochs_sync;
  o.mlp_extra_scale = p.mlp_extra_scale;
  o.hogbatch_paper_batch = p.hogbatch_paper_batch;
  o.step_grid = p.grid;
  return o;
}

/// Builds one (task, dataset) group the way Study does: MLP data keeps at
/// least ~2k examples and gets the mini-batch and gradient delay that
/// preserve the paper's in-flight fraction.
std::unique_ptr<Group> make_group(Task task, const std::string& name,
                                  const Protocol& p, const Env& env,
                                  double* generate_s) {
  auto g = std::make_unique<Group>();
  g->task = task;
  g->dataset = name;
  double data_scale = p.scale;
  if (task == Task::kMlp) {
    const double paper_n =
        static_cast<double>(profile_by_name(name).paper_n());
    data_scale = std::min(p.scale * p.mlp_extra_scale,
                          std::max(1.0, paper_n / 2048.0));
  }
  GeneratorOptions gen;
  gen.seed = env.seed;
  gen.scale = data_scale;
  const double t0 = now_s();
  g->base = std::make_unique<Dataset>(generate_dataset(name, gen));
  *generate_s += now_s() - t0;

  if (task == Task::kMlp) {
    g->view = std::make_unique<Dataset>(make_mlp_dataset(*g->base));
    g->model = std::make_unique<Mlp>(g->base->profile.mlp_architecture());
    const double n = static_cast<double>(g->base->n());
    const double paper_n = static_cast<double>(g->base->profile.paper_n());
    const double paper_batch = static_cast<double>(p.hogbatch_paper_batch);
    g->hog_batch = std::max<std::size_t>(
        64, static_cast<std::size_t>(n * paper_batch / paper_n + 0.5));
    const double inflight = static_cast<double>(p.cpu_threads) *
                            paper_batch / paper_n;
    g->hog_delay = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               0.5 * inflight * n / static_cast<double>(g->hog_batch) +
               0.5));
  } else if (task == Task::kLr) {
    g->model = std::make_unique<LogisticRegression>(g->base->d());
  } else {
    g->model = std::make_unique<LinearSvm>(g->base->d());
  }
  const Dataset& ds = g->data();
  g->dense = Study::use_dense(task, ds);
  g->w0 = g->model->init_params(env.seed ^ 0xabcdef);
  g->ctx = make_engine_context(ds, *g->model,
                               g->dense ? Layout::kDense : Layout::kSparse);
  g->ctx.cpu_threads = p.cpu_threads;
  g->ctx.pool = env.pool;
  g->ctx.seed = env.seed;
  g->ctx.telemetry = env.telemetry;
  return g;
}

EngineSpec paper_spec(const Group& g, Update update, Arch arch) {
  EngineSpec s;
  s.update = update;
  s.arch = arch;
  s.layout = g.dense ? Layout::kDense : Layout::kSparse;
  if (g.task == Task::kMlp) {
    s.calibration = Calibration::kMlp;
    s.batch = g.hog_batch;
    if (update == Update::kAsync && arch != Arch::kGpu) {
      s.delay_units = g.hog_delay;
    }
  }
  return s;
}

/// One training run through the factory, counted in the ledger.
RunResult train(const Group& g, const EngineSpec& spec, double alpha,
                const TrainOptions& t, const Env& env, Ledger& ledger) {
  SpanScope span(env.tracer, "run_training");
  const std::unique_ptr<Engine> engine = make_engine(spec, g.ctx);
  RunResult run = run_training(*engine, *g.model, g.ctx.data, g.w0,
                               static_cast<real_t>(alpha), t);
  const double epochs = static_cast<double>(run.epochs());
  ++ledger.runs;
  ledger.epochs += run.epochs();
  ledger.examples += epochs * static_cast<double>(g.ctx.data.n());
  ledger.loss_evals[g.key()] += epochs + 1;
  if (spec.update == Update::kSync && spec.batch <= 1 &&
      spec.layout == Layout::kSparse) {
    ledger.spmv_t_epochs[g.key()] += epochs;
  }
  return run;
}

StepSearchResult search(const Group& g, const EngineSpec& spec,
                        std::size_t full_epochs, const Protocol& p,
                        const Env& env, Ledger& ledger) {
  SpanScope span(env.tracer, "step_search");
  StepSearchOptions so;
  so.grid = p.grid;
  so.probe_epochs = p.probe_epochs;
  so.keep_candidates = p.keep_candidates;
  so.full_epochs = full_epochs;
  so.train.prefer_dense = g.dense;
  so.train.max_epochs = full_epochs;
  so.label = format_spec(spec);
  StepSearchResult sr = search_step_size(
      [&](double alpha, std::size_t epochs) {
        TrainOptions t = so.train;
        t.max_epochs = epochs;
        return train(g, spec, alpha, t, env, ledger);
      },
      so);
  ledger.useful_epochs += sr.run.epochs();
  return sr;
}

double family_optimum(const StepSearchResult& sr) {
  if (sr.failed) return std::numeric_limits<double>::infinity();
  return std::min(sr.optimum, sr.run.best_loss());
}

/// A sweep cell; `spec` is empty for cells Study ran (it keeps its specs).
Cell make_cell(Task task, const std::string& dataset, const std::string& label,
               const std::string& spec, double alpha, const RunResult& run,
               double optimum, bool failed) {
  Cell c;
  report::Entry& e = c.entry;
  e.label = label;
  e.task = to_string(task);
  e.dataset = dataset;
  e.spec = spec;
  e.alpha = alpha;
  e.diverged = run.diverged;
  e.axes = report::Axes::from(run, optimum);
  e.series_loss = run.losses;
  e.series_seconds = run.epoch_seconds;
  if (failed) {
    c.failure = "every step-size probe diverged";
  } else if (!std::isfinite(optimum) || e.axes.sec_per_epoch <= 0 ||
             !std::isfinite(e.axes.sec_per_epoch)) {
    c.failure = "no finite optimum or time per iteration";
  }
  return c;
}

std::string cell_label(Task task, const std::string& dataset, Update u,
                       Arch arch) {
  return std::string(to_string(task)) + "/" + dataset +
         (u == Update::kSync ? "/sync/" : "/async/") + to_string(arch);
}

/// Attaches the paper's Table II (sync) or Table III (async) values of
/// the cell's architecture, where the paper reports them.
void attach_paper(Cell& c, Task task, const std::string& dataset, Update u,
                  Arch arch) {
  const std::size_t i = arch == Arch::kCpuSeq ? 0 : arch == Arch::kCpuPar ? 1 : 2;
  auto take = [&](const auto* row) {
    if (row == nullptr) return;
    const double tpi[] = {row->tpi_seq, row->tpi_par, row->tpi_gpu};
    const double ttc[] = {row->ttc_seq, row->ttc_par, row->ttc_gpu};
    c.paper_tpi_ms = tpi[i] > 0 ? tpi[i] : -1;
    c.paper_ttc_s = std::isfinite(ttc[i]) && ttc[i] > 0 ? ttc[i] : -1;
  };
  if (u == Update::kSync) {
    take(paperref::find_sync(to_string(task), dataset));
  } else {
    take(paperref::find_async(to_string(task), dataset));
  }
}

/// Table II / Table III cells of one task over a dataset list.
class PaperWorkload final : public Workload {
 public:
  PaperWorkload(Task task, std::vector<std::string> datasets,
                std::vector<Update> updates, Protocol p)
      : task_(task), datasets_(std::move(datasets)),
        updates_(std::move(updates)), p_(std::move(p)) {}

  const std::vector<std::unique_ptr<Group>>& groups() const override {
    return groups_;
  }

  std::size_t pool_workers(std::size_t cpus) const override {
    return p_.pool_workers > 0 ? p_.pool_workers : Workload::pool_workers(cpus);
  }

  void setup(const Env& env) override {
    groups_.clear();  // sweep() does not use the instrumented inputs
    study_.reset();
    study_ = std::make_unique<Study>(study_options(p_, env));
    for (const std::string& ds : datasets_) study_->dataset(task_, ds);
  }

  /// Study::config_result for every cell, the way the table benches run.
  SweepResult sweep(const Env& env) override {
    SpanScope span(env.tracer, "sweep");
    SweepResult out;
    for (const std::string& ds : datasets_) {
      for (const Update u : updates_) {
        for (const Arch arch : kPaperArchs) {
          const ConfigResult r = study_->config_result(task_, ds, u, arch);
          Cell c = make_cell(task_, ds, cell_label(task_, ds, u, arch), "",
                             r.alpha, *r.run, study_->optimum(task_, ds, u),
                             false);
          attach_paper(c, task_, ds, u, arch);
          out.cells.push_back(std::move(c));
        }
      }
    }
    out.claims = claims(out);
    return out;
  }

  double setup_instrumented(const Env& env) override {
    groups_.clear();
    double gen_s = 0;
    for (const std::string& ds : datasets_) {
      groups_.push_back(make_group(task_, ds, p_, env, &gen_s));
    }
    return gen_s;
  }

  /// Study's protocol replayed call by call (its spec, grid and optimum
  /// rules), so that each run_training call is counted and spanned.
  SweepResult sweep_instrumented(const Env& env) override {
    SpanScope span(env.tracer, "sweep");
    SweepResult out;
    for (const auto& g : groups_) {
      SpanScope cell(env.tracer, "cell");
      for (const Update u : updates_) {
        if (u == Update::kSync) {
          sync_cells(*g, env, out);
        } else {
          async_cells(*g, env, out);
        }
      }
    }
    out.claims = claims(out);
    return out;
  }

 private:
  // Sync trajectories are architecture-independent (the paper's finding
  // and the engines' contract): search once on cpu-seq, then instrument
  // one epoch per architecture.
  void sync_cells(const Group& g, const Env& env, SweepResult& out) {
    const std::size_t full = p_.full_epochs_sync;
    const StepSearchResult sr =
        search(g, paper_spec(g, Update::kSync, Arch::kCpuSeq), full, p_, env,
               out.ledger);
    const double opt = family_optimum(sr);
    for (const Arch arch : kPaperArchs) {
      const EngineSpec spec = paper_spec(g, Update::kSync, arch);
      double secs = 0;
      {
        SpanScope inst(env.tracer, "epoch_seconds");
        secs = make_engine(spec, g.ctx)->epoch_seconds(g.w0);
      }
      RunResult run = sr.run;
      std::fill(run.epoch_seconds.begin(), run.epoch_seconds.end(), secs);
      Cell c = make_cell(g.task, g.dataset,
                         cell_label(g.task, g.dataset, Update::kSync, arch),
                         format_spec(spec), sr.alpha, run, opt, sr.failed);
      attach_paper(c, g.task, g.dataset, Update::kSync, arch);
      out.cells.push_back(std::move(c));
      out.chosen.push_back({&g, spec, sr.alpha});
    }
  }

  // Async architectures run distinct semantics: one search each, with the
  // family optimum over all three as the convergence reference.
  void async_cells(const Group& g, const Env& env, SweepResult& out) {
    std::vector<StepSearchResult> runs;
    double opt = std::numeric_limits<double>::infinity();
    for (const Arch arch : kPaperArchs) {
      runs.push_back(search(g, paper_spec(g, Update::kAsync, arch),
                            p_.full_epochs_async, p_, env, out.ledger));
      opt = std::min(opt, family_optimum(runs.back()));
    }
    for (std::size_t i = 0; i < std::size(kPaperArchs); ++i) {
      const Arch arch = kPaperArchs[i];
      const EngineSpec spec = paper_spec(g, Update::kAsync, arch);
      Cell c = make_cell(g.task, g.dataset,
                         cell_label(g.task, g.dataset, Update::kAsync, arch),
                         format_spec(spec), runs[i].alpha, runs[i].run, opt,
                         runs[i].failed);
      attach_paper(c, g.task, g.dataset, Update::kAsync, arch);
      out.cells.push_back(std::move(c));
      out.chosen.push_back({&g, spec, runs[i].alpha});
    }
  }

  // The headline checks the table benches print, evaluated.
  std::vector<Claim> claims(const SweepResult& r) const {
    std::map<std::string, const report::Axes*> ax;
    for (const Cell& c : r.cells) ax[c.entry.label] = &c.entry.axes;
    auto tpi = [&](const std::string& label) {
      const auto it = ax.find(label);
      return it == ax.end() ? -1.0 : it->second->sec_per_epoch;
    };
    auto ttc = [&](const std::string& label) {
      const auto it = ax.find(label);
      if (it == ax.end() || it->second->ttc_1pct < 0) {
        return std::numeric_limits<double>::infinity();
      }
      return it->second->ttc_1pct;
    };
    std::vector<Claim> out;
    const std::string task = to_string(task_);
    for (const Update u : updates_) {
      const std::string mode = u == Update::kSync ? "/sync" : "/async";
      std::string best_ratio_ds;
      double best_ratio = -1;
      for (const std::string& ds : datasets_) {
        const std::string k = task + "/" + ds + mode;
        const double seq = tpi(k + "/cpu-seq");
        const double par = tpi(k + "/cpu-par");
        const double gpu = tpi(k + "/gpu");
        if (u == Update::kSync) {
          out.push_back({k + ": gpu beats cpu-par per iteration",
                         gpu > 0 && gpu < par});
          if (par / gpu > best_ratio) {
            best_ratio = par / gpu;
            best_ratio_ds = ds;
          }
          if (task_ == Task::kMlp) {
            out.push_back({k + ": cpu-seq/cpu-par about 2x (1..4)",
                           seq / par > 1 && seq / par < 4});
          } else if (ds == "covtype" || ds == "w8a" || ds == "real-sim") {
            out.push_back({k + ": cpu-seq/cpu-par super-linear (>56)",
                           seq / par > 56});
          }
        } else if (task_ == Task::kMlp) {
          out.push_back({k + ": cpu-par fastest per iteration",
                         par > 0 && par < seq && par < gpu});
          out.push_back({k + ": cpu-par beats gpu per iteration by 6x+",
                         par > 0 && gpu / par >= 6});
        } else {
          const bool dense_low_d = ds == "covtype";
          out.push_back(
              {k + (dense_low_d ? ": cpu-par slower per iteration than cpu-seq"
                                : ": cpu-par faster per iteration than cpu-seq"),
               dense_low_d ? par > seq : (par > 0 && par < seq)});
          const double cpu = std::min(ttc(k + "/cpu-seq"), ttc(k + "/cpu-par"));
          out.push_back({k + ": best cpu beats gpu in time to 1%",
                         std::isfinite(cpu) && cpu < ttc(k + "/gpu")});
        }
      }
      if (u == Update::kSync && task_ != Task::kMlp) {
        out.push_back({task + mode + ": news has the largest cpu-par/gpu ratio",
                       best_ratio_ds == "news"});
      }
    }
    return out;
  }

  Task task_;
  std::vector<std::string> datasets_;
  std::vector<Update> updates_;
  Protocol p_;
  std::unique_ptr<Study> study_;
  std::vector<std::unique_ptr<Group>> groups_;
};

/// PS vs ring all-reduce over nodes {1,2,4,8} on one sparse high-d set,
/// checkpointing every epoch, plus a nodedown fault under resilience=full
/// and a resume from a mid-run checkpoint (DESIGN.md §17, §11). The
/// paper has no cluster rows; its single-machine reference on the same
/// data, the Table II LR cells, runs alongside and is the only part with
/// a paper counterpart.
class ClusterWorkload final : public Workload {
 public:
  ClusterWorkload()
      : single_(Task::kLr, {kDataset}, {Update::kSync}, protocol()) {}

  const std::vector<std::unique_ptr<Group>>& groups() const override {
    return groups_;
  }

  /// One worker: batches of 64 are too small to gain from more, and every
  /// extra thread is one more vCPU whose stall holds each batch's join.
  std::size_t pool_workers(std::size_t /*cpus*/) const override { return 1; }

  void setup(const Env& env) override {
    single_.setup(env);
    double gen_s = 0;
    build_group(env, &gen_s);
  }

  SweepResult sweep(const Env& env) override {
    return with_cluster(single_.sweep(env), env);
  }

  double setup_instrumented(const Env& env) override {
    double gen_s = single_.setup_instrumented(env);
    build_group(env, &gen_s);
    return gen_s;
  }

  SweepResult sweep_instrumented(const Env& env) override {
    return with_cluster(single_.sweep_instrumented(env), env);
  }

 private:
  static constexpr const char* kDataset = "real-sim";
  static constexpr double kScale = 100;
  static constexpr std::size_t kEpochs = 20;
  static constexpr double kAlpha = 0.5;
  static constexpr std::size_t kNodes[] = {1, 2, 4, 8};

  static Protocol protocol() {
    Protocol p;
    p.scale = kScale;
    return p;
  }

  void build_group(const Env& env, double* generate_s) {
    groups_.clear();
    groups_.push_back(make_group(Task::kLr, kDataset, protocol(), env,
                                 generate_s));
  }

  /// Adds the cluster cells to the single-machine sweep `out`; the claims
  /// are the cluster crossover only.
  SweepResult with_cluster(SweepResult out, const Env& env) {
    SpanScope span(env.tracer, "cluster_sweep");
    out.claims.clear();
    const Group& g = *groups_.front();
    TrainOptions t;
    t.max_epochs = kEpochs;
    t.seed = env.seed;
    t.checkpoint_every = 1;

    std::vector<EngineSpec> specs;
    std::vector<std::string> labels;
    std::vector<RunResult> runs;
    for (const char* sync : {"ps", "allreduce"}) {
      for (const std::size_t nodes : kNodes) {
        SpanScope cell(env.tracer, "cell");
        specs.push_back(spec_for(sync, nodes, ""));
        labels.push_back(g.key() + "/" + sync + "/n" + std::to_string(nodes));
        t.checkpoint_path = env.work_dir + "/" + sync + "_n" +
                            std::to_string(nodes) + ".ckpt";
        runs.push_back(train(g, specs.back(), kAlpha, t, env, out.ledger));
      }
    }
    // One convergence reference for every cluster shape, so epochs to a
    // threshold compare across cells (as bench_cluster does).
    const double opt = optimal_loss(runs);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      out.cells.push_back(make_cell(g.task, g.dataset, labels[i],
                                    format_spec(specs[i]), kAlpha, runs[i],
                                    opt, false));
      out.chosen.push_back({&g, specs[i], kAlpha});
    }

    t.checkpoint_path.clear();
    {
      // nodedown under resilience=full: shard speculation must keep the
      // trajectory of the fault-free run.
      SpanScope cell(env.tracer, "cell");
      const EngineSpec spec =
          spec_for("ps", 4, ",faults=nodedown@2,resilience=full");
      TrainOptions faulty = t;
      faulty.supervisor.mode = spec.resilience;
      const RunResult run = train(g, spec, kAlpha, faulty, env, out.ledger);
      const std::size_t base = index_of(labels, g.key() + "/ps/n4");
      Cell c = make_cell(g.task, g.dataset, g.key() + "/ps/n4/nodedown",
                         format_spec(spec), kAlpha, run, opt, false);
      if (run.losses != runs[base].losses) {
        c.failure = "nodedown trajectory differs from the fault-free run";
      } else if (run.resilience.node_recoveries == 0) {
        c.failure = "nodedown fault never recovered";
      }
      out.cells.push_back(std::move(c));
    }
    {
      // Resume: stop all-reduce n4 halfway with a checkpoint, load it and
      // finish; the result must equal the uninterrupted run.
      SpanScope cell(env.tracer, "cell");
      const std::size_t base = index_of(labels, g.key() + "/allreduce/n4");
      TrainOptions first = t;
      first.max_epochs = kEpochs / 2;
      first.checkpoint_path = env.work_dir + "/resume.ckpt";
      train(g, specs[base], kAlpha, first, env, out.ledger);
      TrainCheckpoint ck;
      {
        SpanScope load(env.tracer, "load_checkpoint");
        ck = load_checkpoint(first.checkpoint_path);
      }
      TrainOptions second = t;
      second.resume = &ck;
      const RunResult run = train(g, specs[base], kAlpha, second, env,
                                  out.ledger);
      Cell c = make_cell(g.task, g.dataset, g.key() + "/allreduce/n4/resumed",
                         format_spec(specs[base]), kAlpha, run, opt, false);
      if (run.losses != runs[base].losses ||
          run.epoch_seconds != runs[base].epoch_seconds) {
        c.failure = "resumed trajectory differs from the uninterrupted run";
      }
      out.cells.push_back(std::move(c));
    }

    // EXPERIMENTS.md crossover: at n=1 all-reduce wins time to 1%, at
    // n>=2 the parameter server wins at 10us:10gbps.
    for (const std::size_t nodes : kNodes) {
      const std::string n = "/n" + std::to_string(nodes);
      const double ps = ttc_of(out, g.key() + "/ps" + n);
      const double ar = ttc_of(out, g.key() + "/allreduce" + n);
      out.claims.push_back(
          {g.key() + n + (nodes == 1 ? ": all-reduce wins time to 1%"
                                     : ": parameter server wins time to 1%"),
           nodes == 1 ? ar <= ps && std::isfinite(ar)
                      : ps < ar && std::isfinite(ps)});
    }
    return out;
  }

  static EngineSpec spec_for(const std::string& sync, std::size_t nodes,
                             const std::string& extra) {
    return parse_spec(std::string(sync == "ps" ? "async" : "sync") +
                      "/cluster/sparse:batch=64,link=10us:10gbps,nodes=" +
                      std::to_string(nodes) + extra);
  }
  static std::size_t index_of(const std::vector<std::string>& labels,
                              const std::string& label) {
    const auto it = std::find(labels.begin(), labels.end(), label);
    PARSGD_CHECK(it != labels.end(), "no cell " << label);
    return static_cast<std::size_t>(it - labels.begin());
  }
  static double ttc_of(const SweepResult& r, const std::string& label) {
    for (const Cell& c : r.cells) {
      if (c.entry.label == label && c.entry.axes.ttc_1pct >= 0) {
        return c.entry.axes.ttc_1pct;
      }
    }
    return std::numeric_limits<double>::infinity();
  }

  PaperWorkload single_;
  std::vector<std::unique_ptr<Group>> groups_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  const std::vector<std::string> all = {"covtype", "w8a", "real-sim", "rcv1",
                                        "news"};
  if (name == "lr_sync") {
    return std::make_unique<PaperWorkload>(Task::kLr, all,
                                           std::vector{Update::kSync},
                                           Protocol{});
  }
  if (name == "lr_async") {
    Protocol p;
    p.scale = 800;
    p.probe_epochs = 2;
    p.full_epochs_async = 15;
    return std::make_unique<PaperWorkload>(Task::kLr, all,
                                           std::vector{Update::kAsync}, p);
  }
  if (name == "mlp_hogbatch") {
    Protocol p;
    p.full_epochs_sync = 10;
    p.full_epochs_async = 10;
    // As for cluster_ckpt: with one worker the sweep runs faster than
    // with nproc - 1 and is far less disturbed by vCPU steal.
    p.pool_workers = 1;
    return std::make_unique<PaperWorkload>(
        Task::kMlp, std::vector<std::string>{"covtype", "real-sim"},
        std::vector{Update::kSync, Update::kAsync}, p);
  }
  if (name == "cluster_ckpt") return std::make_unique<ClusterWorkload>();
  PARSGD_CHECK(false, "unknown workload '" << name << "'");
  return nullptr;
}

}  // namespace perfbench
