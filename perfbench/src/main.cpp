// perfbench -- entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// Runs one workload (paper_grid, trace_ladder, audited_ladder,
// served_replay) and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end set, measured with tracing off; with
// --trace 1 they are the per-layer metrics of the layers the workload
// exercises, from a separate traced run. run.py completes the set from
// BENCHMARK.json. A human-readable table goes to stderr.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include "bench.hpp"

namespace perfbench {
namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "workloads: paper_grid trace_ladder audited_ladder "
               "served_replay\n");
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload")
      args.workload = value;
    else if (flag == "--seed")
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds")
      args.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace")
      args.trace = value == "1";
    else if (flag == "--out-dir")
      args.out_dir = value;
    else
      return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

void print_json(const Report& report,
                const std::map<std::string, Metric>& metrics, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) {
    usage();
    return 2;
  }
  // A traced run writes its spans afresh.
  if (args.trace)
    std::remove((args.out_dir + "/spans-" + args.workload + ".jsonl").c_str());
  Report report;
  try {
    if (args.workload == "paper_grid")
      run_paper_grid(args, report);
    else if (args.workload == "trace_ladder")
      run_trace_ladder(args, report);
    else if (args.workload == "audited_ladder")
      run_audited_ladder(args, report);
    else if (args.workload == "served_replay")
      run_served_replay(args, report);
    else {
      usage();
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 error.what());
    return 1;
  }

  if (!args.trace) {
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("ok_frac",
               report.attempted() == 0
                   ? 0.0
                   : 1.0 - static_cast<double>(report.failed()) /
                               static_cast<double>(report.attempted()),
               "ratio");
  }
  std::map<std::string, Metric> metrics = report.metrics();
  bool correct = report.failed() == 0 && report.attempted() > 0;
  for (auto& [name, metric] : metrics)
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      metric.value = 0.0;
      correct = false;
    }
  for (const std::string& failure : report.failures())
    std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());
  std::fprintf(stderr,
               "perfbench: %s seed %llu %s: %llu attempted, %llu failed\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               args.trace ? "traced" : "untraced",
               static_cast<unsigned long long>(report.attempted()),
               static_cast<unsigned long long>(report.failed()));
  for (const auto& [name, metric] : metrics)
    std::fprintf(stderr, "  %-36s %16.6g %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  std::fflush(stderr);
  print_json(report, metrics, correct);
  return 0;
}
