// Runs a small slice of the study and exports the results as a RunReport
// — the machine-readable path for downstream analysis pipelines. --json
// writes the versioned report document (what parsgd_compare reads),
// --csv its one-row-per-configuration CSV view.
//
//   ./export_results [--task=LR] [--dataset=w8a] [--csv=out.csv]
//                    [--json=out.json]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "core/study.hpp"
#include "report/report.hpp"

using namespace parsgd;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string dataset = cli.get("dataset", "w8a");
  const std::string task_name = cli.get("task", "LR");
  const Task task = task_name == "SVM"   ? Task::kSvm
                    : task_name == "MLP" ? Task::kMlp
                                         : Task::kLr;

  StudyOptions opts;
  opts.scale = cli.get_double("scale", 300.0);
  opts.probe_epochs = 10;
  opts.full_epochs_linear = 120;
  opts.full_epochs_linear_sync = 250;
  opts.full_epochs_mlp = 80;
  opts.full_epochs_mlp_sync = 80;
  Study study(opts);

  const Timer host_timer;
  report::RunReport rep("export_results");
  rep.seed = opts.seed;
  rep.threads = opts.cpu_threads;
  rep.scale = opts.scale;
  rep.datasets.push_back(
      report::DatasetInfo::from(study.dataset(task, dataset)));
  for (const Update update : {Update::kSync, Update::kAsync}) {
    for (const Arch arch : {Arch::kCpuSeq, Arch::kCpuPar, Arch::kGpu}) {
      const ConfigResult r = study.config_result(task, dataset, update, arch);
      const std::string label = std::string(to_string(task)) + "/" + dataset +
                                "/" + to_string(update) + "/" +
                                to_string(arch);
      rep.add_entry(
          report::Entry::from(label, task, dataset, update, arch, r));
    }
  }
  rep.host_seconds = host_timer.seconds();

  const std::string csv_path = cli.get("csv", "");
  const std::string json_path = cli.get("json", "");
  if (!csv_path.empty()) {
    std::ofstream os(csv_path);
    report::write_csv(os, rep);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    report::write_report(os, rep);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (csv_path.empty() && json_path.empty()) {
    report::write_csv(std::cout, rep);
  }
  return 0;
}
