// Benchmark driver: one workload per process.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --ref-dir DIR --work-dir DIR [--record 1]
//
// Seed N selects input seed 1 + N mod 10: the generated datasets, initial
// weights and run RNG streams all derive from it, and reference outputs
// are recorded for each of the ten input seeds.
//
// Untraced (--trace 0): an untimed warm-up (the instrumented sweep, whose
// cells every later sweep must equal), then setup + sweep repetitions
// until S seconds have passed; prints the end-to-end metrics (lower
// quartiles over the repetitions). Traced (--trace 1): the same timed
// loop as the untraced base, then one instrumented sweep
// with spans and the telemetry registry attached, the per-layer probes,
// and a re-run on a pool of another size whose deterministic counts must
// match. The last stdout line is the result object; progress and
// diagnostics go to stderr.
//
// --record 1 (implies --trace 1, one timed sweep) rewrites the input
// seed's reference report and deterministic counts under
// --ref-dir/WORKLOAD instead of checking against them.
#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "parallel/thread_pool.hpp"
#include "report/json.hpp"

using namespace parsgd;
using namespace perfbench;

namespace {

// ---- thread census -----------------------------------------------------

std::vector<long> task_ids() {
  std::vector<long> ids;
  DIR* dir = opendir("/proc/self/task");
  PARSGD_CHECK(dir != nullptr, "cannot list /proc/self/task");
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ids.push_back(std::stol(e->d_name));
  }
  closedir(dir);
  return ids;
}

/// utime + stime clock ticks of one thread of this process.
long task_ticks(long tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0;  // thread already gone
  std::istringstream fields(stat.substr(close + 2));
  std::string f;
  long utime = 0, stime = 0;
  for (int i = 3; fields >> f; ++i) {  // field 3 is the state
    if (i == 14) utime = std::stol(f);
    if (i == 15) {
      stime = std::stol(f);
      break;
    }
  }
  return utime + stime;
}

/// Every thread the benchmark made on purpose is registered; any other
/// thread (the library's process-global pool) must never have run.
class ThreadCensus {
 public:
  void allow_current() {
    for (const long id : task_ids()) allowed_.insert(id);
  }
  /// Registers the threads that appeared since `before` was taken.
  void allow_since(const std::vector<long>& before) {
    for (const long id : task_ids()) {
      if (std::find(before.begin(), before.end(), id) == before.end()) {
        allowed_.insert(id);
      }
    }
  }
  /// Returns "" when no foreign thread used CPU, else a description.
  std::string check() const {
    std::size_t foreign = 0;
    long ticks = 0;
    for (const long id : task_ids()) {
      if (allowed_.count(id)) continue;
      ++foreign;
      ticks += task_ticks(id);
    }
    std::fprintf(stderr,
                 "threads: %zu benchmark, %zu outside the benchmark pool "
                 "(%ld CPU ticks)\n",
                 allowed_.size(), foreign, ticks);
    if (ticks == 0) return "";
    return std::to_string(foreign) + " threads outside the benchmark pool ran " +
           std::to_string(ticks) + " ticks";
  }

 private:
  std::set<long> allowed_;
};

/// (steal, total) clock ticks of all CPUs from /proc/stat: time the
/// hypervisor ran someone else while this machine's vCPUs wanted to run.
std::pair<double, double> steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {  // user .. steal
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Share of all CPU time stolen between two steal_ticks() readings.
double steal_share(std::pair<double, double> a, std::pair<double, double> b) {
  return (b.first - a.first) / std::max(b.second - a.second, 1.0);
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

// ---- timed samples -------------------------------------------------------

/// One timed iteration: a fresh setup and one sweep.
struct Sample {
  double setup_s = 0;
  double host_s = 0;
  double cpu_s = 0;
  double steal = 0;  ///< share of all CPU time stolen during the iteration
};

/// The quantile of the timed iterations the end-to-end timings report:
/// their lower quartile. On a shared virtual machine a sweep runs slower,
/// never faster, when a co-tenant takes the host's cores, caches or
/// memory bandwidth or a vCPU stalls (and a stalled vCPU holds every join
/// of a fork-join sweep), and such disturbances come and go within a run.
/// The lower quartile follows the undisturbed speed of the program while
/// up to three quarters of its iterations are disturbed; the median
/// follows it only while fewer than half are.
constexpr double kReportedQuantile = 0.25;

template <class F>
double quantile_of(const std::vector<Sample>& samples, F field, double q) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(field(s));
  return quantile(v, q);
}

// ---- checks ------------------------------------------------------------

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for stderr

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 12) failures.push_back(std::move(why));
  }
};

report::RunReport to_report(const std::string& workload,
                            const SweepResult& r) {
  report::RunReport rep("perfbench_" + workload);
  for (const Cell& c : r.cells) rep.add_entry(c.entry);
  return rep;
}

/// Checks every cell of a sweep: its own in-sweep checks, the modeled
/// axes against the committed reference (parsgd_compare's gate), and a
/// step size and trajectory identical to the run's instrumented warm-up
/// sweep (which also proves the instrumented replay equals Study).
void check_sweep(const std::string& workload, const SweepResult& r,
                 const report::RunReport* ref, const SweepResult* first,
                 Tally& t) {
  std::map<std::string, std::string> regressed;
  if (ref != nullptr) {
    const report::CompareResult cmp =
        report::compare_reports(*ref, to_report(workload, r));
    for (const report::Regression& reg : cmp.regressions) {
      regressed[reg.label] += reg.describe() + "; ";
    }
  }
  std::map<std::string, const Cell*> first_cells;
  if (first != nullptr) {
    for (const Cell& c : first->cells) first_cells[c.entry.label] = &c;
  }
  for (const Cell& c : r.cells) {
    ++t.attempted;
    const std::string& label = c.entry.label;
    if (!c.failure.empty()) {
      t.fail(label + ": " + c.failure);
    } else if (regressed.count(label)) {
      t.fail(label + ": " + regressed[label]);
    } else if (first != nullptr &&
               (!first_cells.count(label) ||
                first_cells[label]->entry.alpha != c.entry.alpha ||
                first_cells[label]->entry.series_loss != c.entry.series_loss ||
                first_cells[label]->entry.series_seconds !=
                    c.entry.series_seconds)) {
      t.fail(label + ": step size or trajectory differs from the "
                     "instrumented warm-up sweep");
    }
    regressed.erase(label);
  }
  for (const auto& [label, why] : regressed) {  // e.g. a vanished entry
    ++t.attempted;
    t.fail((label.empty() ? "report" : label) + ": " + why);
  }
}

double log10_err(const SweepResult& r, bool ttc) {
  std::vector<double> errs;
  for (const Cell& c : r.cells) {
    const double ours = ttc ? c.entry.axes.ttc_1pct
                            : c.entry.axes.sec_per_epoch * 1e3;
    const double paper = ttc ? c.paper_ttc_s : c.paper_tpi_ms;
    if (ours > 0 && paper > 0) errs.push_back(std::abs(std::log10(ours / paper)));
  }
  PARSGD_CHECK(!errs.empty(), "no cell with a paper counterpart for "
                                  << (ttc ? "ttc" : "tpi"));
  return median(errs);
}

// ---- deterministic counts ----------------------------------------------

/// The (=) per-layer counts the traced sweep itself yields: functions of
/// the inputs alone, identical for every pool size and every run of one
/// seed.
const std::vector<std::string> kSweepCounts = {
    "stepsize.runs",        "stepsize.epochs",      "stepsize.useful_epoch_frac",
    "async.write_conflicts", "async.stale_units",   "cluster.net_bytes",
    "cluster.net_messages", "cluster.stale_units"};
/// (=) counts of the layer probes, checked against the reference only.
const std::vector<std::string> kProbeCounts = {"gpusim.cycles", "ckpt.bytes"};

std::map<std::string, double> counts_of(const Metrics& m,
                                        const std::vector<std::string>& names) {
  std::map<std::string, double> out;
  for (const std::string& n : names) out[n] = m.at(n).value;
  return out;
}

double counter(const telemetry::MetricsSnapshot& snap, const std::string& n) {
  const telemetry::MetricSample* s = snap.find(n);
  return s == nullptr ? 0 : s->value;
}

double hist_p99_us(const telemetry::MetricsSnapshot& snap,
                   const std::string& n) {
  const telemetry::MetricSample* s = snap.find(n);
  return s == nullptr ? 0 : s->p99 * 1e-3;
}

/// Metrics the traced sweep itself yields: spans, the ledger and the
/// telemetry registry.
void sweep_metrics(const SweepResult& r, const Tracer& tr,
                   const telemetry::MetricsSnapshot& snap, Metrics& m) {
  const Ledger& l = r.ledger;
  m["stepsize.search_s"] = {tr.total("step_search"), "s"};
  m["stepsize.runs"] = {static_cast<double>(l.runs), "count"};
  m["stepsize.epochs"] = {static_cast<double>(l.epochs), "count"};
  m["stepsize.useful_epoch_frac"] = {
      l.epochs == 0 ? 0
                    : static_cast<double>(l.useful_epochs) /
                          static_cast<double>(l.epochs),
      "ratio"};
  m["pool.jobs"] = {counter(snap, "pool.jobs"), "count"};
  m["pool.parks"] = {counter(snap, "pool.parks"), "count"};
  m["pool.wakeups"] = {counter(snap, "pool.wakeups"), "count"};
  m["pool.queue_wait_us.p99"] = {hist_p99_us(snap, "pool.queue_wait_ns"), "us"};
  m["graph.runs"] = {counter(snap, "graph.runs"), "count"};
  m["graph.tasks"] = {counter(snap, "graph.tasks"), "count"};
  m["graph.steals"] = {counter(snap, "graph.steals"), "count"};
  m["graph.ready_wait_us.p99"] = {hist_p99_us(snap, "graph.ready_wait_ns"),
                                  "us"};
  m["async.write_conflicts"] = {counter(snap, "async.write_conflicts"),
                                "count"};
  m["async.stale_units"] = {counter(snap, "async.stale_units"), "count"};
  m["cluster.net_bytes"] = {counter(snap, "cluster.net_bytes"), "bytes"};
  m["cluster.net_messages"] = {counter(snap, "cluster.net_messages"), "count"};
  m["cluster.stale_units"] = {counter(snap, "cluster.stale_units"), "count"};
}

struct TracedSweep {
  SweepResult result;
  Tracer tracer;
  double host_s = 0;
  double generate_s = 0;
  double process_cpu_s = 0;  ///< all threads, over the sweep
  double caller_cpu_s = 0;   ///< the driver's own thread, over the sweep
  telemetry::MetricsSnapshot snapshot;
};

/// One sweep with spans and a metrics-mode telemetry session attached.
void traced_sweep(Workload& wl, Env env, TracedSweep& out) {
  env.telemetry = std::make_shared<telemetry::TelemetrySession>(
      telemetry::TelemetryMode::kMetrics);
  env.tracer = &out.tracer;
  {
    SpanScope setup(env.tracer, "setup");
    out.generate_s = wl.setup_instrumented(env);
  }
  const double t0 = now_s();
  const double p0 = process_cpu_s();
  const double c0 = thread_cpu_s();
  out.result = wl.sweep_instrumented(env);
  out.caller_cpu_s = thread_cpu_s() - c0;
  out.process_cpu_s = process_cpu_s() - p0;
  out.host_s = now_s() - t0;
  out.snapshot = env.telemetry->snapshot();
}

void write_spans(const std::string& path, const Tracer& tr) {
  std::ofstream os(path);
  os << "[\n";
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    os << "  {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"name\": \"" << s.name << "\", \"start_s\": "
       << report::json_number(s.start_s - spans.front().start_s)
       << ", \"dur_s\": " << report::json_number(s.end_s - s.start_s) << "}"
       << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void print_result(bool correct, const Tally& t, const Metrics& m) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << report::json_number(metric.value) << ", \"unit\": \"" << metric.unit
       << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Reference outputs are recorded per input variant, so every seed's
/// outputs are checked exactly: seed N runs on input seed 1 + N mod this.
constexpr std::uint64_t kInputVariants = 10;

/// The reference report keeps the gated axes only (compare_reports
/// ignores the per-epoch series).
report::RunReport reference_of(const std::string& workload,
                               const SweepResult& r) {
  report::RunReport rep = to_report(workload, r);
  for (report::Entry& e : rep.entries) {
    e.series_loss.clear();
    e.series_seconds.clear();
  }
  return rep;
}

/// Checks the traced run's (=) counts against the recorded reference (or
/// records them), and the sweep's counts against a re-run on a pool of
/// another size.
void check_counts(const std::map<std::string, double>& counts,
                  const std::map<std::string, double>& other_pool,
                  const std::string& counts_path, std::uint64_t input_seed,
                  bool record, Tally& tally) {
  for (const auto& [name, v] : other_pool) {
    ++tally.attempted;
    if (counts.at(name) != v) {
      tally.fail(name + " differs on a pool of another size: " +
                 std::to_string(counts.at(name)) + " vs " + std::to_string(v));
    }
  }
  report::Json all = std::filesystem::exists(counts_path)
                         ? report::parse_json(read_file(counts_path))
                         : report::Json(report::JsonMembers{});
  const std::string key = std::to_string(input_seed);
  if (record) {
    report::JsonMembers rec;
    for (const auto& [name, v] : counts) rec.emplace_back(name, report::Json(v));
    all.set(key, report::Json(std::move(rec)));
    std::ofstream os(counts_path);
    os << all.dump() << "\n";
    PARSGD_CHECK(os.good(), "cannot write " << counts_path);
    return;
  }
  const report::Json* want = all.find(key);
  for (const auto& [name, v] : counts) {
    ++tally.attempted;
    const report::Json* w = want != nullptr ? want->find(name) : nullptr;
    if (w == nullptr || w->as_number() != v) {
      tally.fail(name + " differs from the reference for input seed " + key);
    }
  }
}

int run(const Cli& cli) {
  const std::string workload = cli.get("workload", "");
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const double seconds = cli.get_double("seconds", 10);
  const bool record = cli.get_int("record", 0) != 0;
  const bool traced = record || cli.get_int("trace", 0) != 0;
  const std::string work_dir = cli.get("work-dir", ".bench_build/perfbench-work");
  const std::uint64_t input_seed = 1 + seed % kInputVariants;
  const std::string ref_dir = cli.get("ref-dir", "perfbench/reference") + "/" +
                              workload;
  const std::string ref_path =
      ref_dir + "/input_" + std::to_string(input_seed) + ".json";
  const std::unique_ptr<Workload> wl = make_workload(workload);
  std::filesystem::create_directories(work_dir);

  ThreadCensus census;
  ThreadPool pool(wl->pool_workers(usable_cpus()));
  census.allow_current();

  std::optional<report::RunReport> ref;
  if (!record) ref = report::load_report(ref_path);

  Env env;
  env.seed = input_seed;
  env.pool = &pool;
  env.work_dir = work_dir;
  Tally tally;

  // Warm-up: page faults, lazy kernel dispatch, pool start-up. The
  // instrumented sweep counts the work (the ledger) and is the reference
  // trajectory of the run.
  wl->setup_instrumented(env);
  const SweepResult first = wl->sweep_instrumented(env);
  check_sweep(workload, first, ref ? &*ref : nullptr, nullptr, tally);
  if (record) {
    std::filesystem::create_directories(ref_dir);
    std::ofstream os(ref_path);
    report::write_report(os, reference_of(workload, first));
    PARSGD_CHECK(os.good(), "cannot write " << ref_path);
    std::fprintf(stderr, "recorded %s\n", ref_path.c_str());
  }

  std::vector<Sample> samples;
  const auto loop_steal = steal_ticks();
  const double loop_start = now_s();
  const std::size_t min_sweeps = record ? 1 : 3;
  while (samples.size() < min_sweeps || now_s() - loop_start < seconds) {
    Sample smp;
    const auto steal0 = steal_ticks();
    const double s0 = now_s();
    wl->setup(env);
    const double s1 = now_s();
    const double c0 = process_cpu_s();
    const SweepResult r = wl->sweep(env);
    smp.host_s = now_s() - s1;
    smp.cpu_s = process_cpu_s() - c0;
    smp.setup_s = s1 - s0;
    smp.steal = steal_share(steal0, steal_ticks());
    samples.push_back(smp);
    std::fprintf(stderr,
                 "  sweep %zu: setup %.4fs host %.4fs cpu %.4fs steal %.1f%%\n",
                 samples.size(), smp.setup_s, smp.host_s, smp.cpu_s,
                 100 * smp.steal);
    check_sweep(workload, r, ref ? &*ref : nullptr, &first, tally);
  }
  const double host_s = quantile_of(
      samples, [](const Sample& x) { return x.host_s; }, kReportedQuantile);
  const double setup_s = quantile_of(
      samples, [](const Sample& x) { return x.setup_s; }, kReportedQuantile);
  std::fprintf(stderr,
               "%s seed %llu (input seed %llu): %zu sweeps; lower quartile "
               "host_s %.4f (median %.4f), setup_s %.4f (median %.4f)\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(input_seed), samples.size(),
               host_s,
               quantile_of(samples, [](const Sample& x) { return x.host_s; }, 0.5),
               setup_s,
               quantile_of(samples, [](const Sample& x) { return x.setup_s; }, 0.5));
  // Printed so that a disturbed run can be told apart from a slow program.
  std::fprintf(stderr, "vcpu steal during timed loop: %.1f%%\n",
               100 * steal_share(loop_steal, steal_ticks()));

  std::size_t held = 0;
  for (const Claim& c : first.claims) {
    held += c.held ? 1 : 0;
    std::fprintf(stderr, "  claim %s: %s\n", c.held ? "holds " : "FAILS ",
                 c.text.c_str());
  }

  Metrics m;
  if (!traced) {
    m["setup_s"] = {setup_s, "s"};
    m["host_s"] = {host_s, "s"};
    m["cpu_s"] = {quantile_of(samples, [](const Sample& x) { return x.cpu_s; },
                              kReportedQuantile),
                  "s"};
    // Every timed sweep equals the instrumented one cell for cell (checked
    // above), so it processed the examples that sweep counted.
    m["examples_per_s"] = {first.ledger.examples / host_s, "examples/s"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    m["cells_ok_frac"] = {
        static_cast<double>(tally.attempted - tally.failed) /
            static_cast<double>(tally.attempted),
        "ratio"};
    m["tpi_log10_err"] = {log10_err(first, false), "log10"};
    m["ttc_log10_err"] = {log10_err(first, true), "log10"};
    m["claims_held"] = {static_cast<double>(held), "count"};
  } else {
    TracedSweep ts;
    traced_sweep(*wl, env, ts);
    check_sweep(workload, ts.result, ref ? &*ref : nullptr, &first, tally);
    m["data.generate_s"] = {ts.generate_s, "s"};
    m["trace.overhead_frac"] = {ts.host_s / host_s - 1, "ratio"};
    // CPU the pool's workers burnt (chunks, spinning, graph drains) as a
    // share of the process CPU of the traced sweep.
    m["parallel.worker_cpu_share"] = {
        1 - ts.caller_cpu_s / std::max(ts.process_cpu_s, 1e-9), "ratio"};
    sweep_metrics(ts.result, ts.tracer, ts.snapshot, m);
    probe_layers(*wl, ts.result, env, ts.host_s, m);
    write_spans(work_dir + "/spans_" + workload + ".json", ts.tracer);

    // The (=) counts do not depend on the pool: re-run on a pool of
    // another size (one worker, or two when the benchmark's pool has one).
    const std::vector<long> before = task_ids();
    ThreadPool other(pool.size() == 1 ? 2 : 1);
    census.allow_since(before);
    Env env1 = env;
    env1.pool = &other;
    TracedSweep ts1;
    traced_sweep(*wl, env1, ts1);
    check_sweep(workload, ts1.result, ref ? &*ref : nullptr, &first, tally);
    Metrics m1;
    sweep_metrics(ts1.result, ts1.tracer, ts1.snapshot, m1);
    std::map<std::string, double> counts = counts_of(m, kSweepCounts);
    counts.merge(counts_of(m, kProbeCounts));
    check_counts(counts, counts_of(m1, kSweepCounts), ref_dir + "/counts.json",
                 input_seed, record, tally);
  }

  const std::string stray = census.check();
  if (!stray.empty()) tally.fail(stray);
  for (const std::string& f : tally.failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  print_result(tally.failed == 0, tally, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Cli(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
