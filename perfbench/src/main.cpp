// perfbench: the repository benchmark's measuring program
// (perfbench/README.md). perfbench/run.py builds it and forwards the
// harness arguments:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--smoke] [--work-dir DIR] [--serve-binary PATH]
//
// NAME is flat_iscas, multilevel_rent or serve_eco (the gated workloads),
// thread_sweep (informational) or selftest (the checker's negative cases).
// The last line of standard output is the result JSON; exit code 0 means
// every output check passed.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  pb::Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") options.workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") options.seconds = std::stod(value());
      else if (arg == "--trace") options.trace = value() != "0";
      else if (arg == "--smoke") options.smoke = true;
      else if (arg == "--work-dir") options.work_dir = value();
      else if (arg == "--serve-binary") options.serve_binary = value();
      else throw std::invalid_argument("unknown argument " + arg);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    if (options.workload == "flat_iscas") return pb::RunFlatIscas(options);
    if (options.workload == "multilevel_rent")
      return pb::RunMultilevelRent(options);
    if (options.workload == "serve_eco") return pb::RunServeEco(options);
    if (options.workload == "thread_sweep") return pb::RunThreadSweep(options);
    if (options.workload == "selftest") return pb::RunSelfTest(options);
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
