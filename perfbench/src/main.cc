// perfbench_workloads: one process per workload (plus the stream
// workload's shard-writing set-up process). Driven by perfbench/run.py.
//
//   perfbench_workloads <batch|stream-setup|stream|serve>
//       --seed N --seconds S --trace 0|1 [--size full|toy] [--dir D]
//       [--perturb]

#include <cstdlib>
#include <iostream>
#include <string>

#include "perfbench/src/workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (argc < 2) {
    std::cerr << "usage: perfbench_workloads <workload> [flags]\n";
    return 2;
  }
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--size" && has_value) {
      args.size = std::string(argv[++i]) == "toy" ? perfbench::Size::kToy
                                                  : perfbench::Size::kFull;
    } else if (flag == "--dir" && has_value) {
      args.dir = argv[++i];
    } else if (flag == "--perturb") {
      args.perturb = true;
    } else {
      std::cerr << "unknown flag " << flag << '\n';
      return 2;
    }
  }
  if (args.workload == "batch") return perfbench::RunBatch(args);
  if (args.workload == "stream-setup") return perfbench::RunStreamSetup(args);
  if (args.workload == "stream") return perfbench::RunStream(args);
  if (args.workload == "serve") return perfbench::RunServeWorkload(args);
  std::cerr << "unknown workload " << args.workload << '\n';
  return 2;
}
