// Layer-ledger benchmark program. One process runs one workload:
//
//   perfbench_ledger --workload paper_link|serve_zipf|serve_churn
//                    --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// times the calls into each module separately and reports the per-layer
// metrics instead. perfbench/run.py builds this binary and checks its
// report against BENCHMARK.json; see perfbench/README.md.
#include <cstdlib>
#include <iostream>
#include <string>

#include "report.h"

namespace perfbench {
void RunPaperLink(const Options& options, Report* report);
void RunServe(const Options& options, bool churn, Report* report);
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (options.seconds <= 0.0) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }
  std::cout << "host: " << perfbench::HostDescription() << "\n"
            << "workload " << options.workload << ", seed " << options.seed
            << ", seconds " << options.seconds << ", trace "
            << (options.trace ? 1 : 0) << std::endl;
  perfbench::Report report;
  if (options.workload == "paper_link") {
    perfbench::RunPaperLink(options, &report);
  } else if (options.workload == "serve_zipf") {
    perfbench::RunServe(options, /*churn=*/false, &report);
  } else if (options.workload == "serve_churn") {
    perfbench::RunServe(options, /*churn=*/true, &report);
  } else {
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  }
  report.Print();
  return 0;
}
