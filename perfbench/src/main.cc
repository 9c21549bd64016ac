// perfbench: runs one named workload against the library and prints its
// metrics. The last line of stdout is one JSON object holding every
// metric, the run's meta block and any correctness errors; perfbench/run.py
// builds this binary and shapes that line into the benchmark's result.
//
//   perfbench --workload tpch_mix --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the workload runs its traced variant: spans around each
// call into the library, per-layer metrics, and a Chrome trace written to
// <out-dir>/<workload>-seed<n>.trace.json.

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/simd.h"
#include "report.h"
#include "telemetry/span.h"
#include "telemetry/span_analysis.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::cerr << "usage: perfbench --workload <tpch_mix|fleet_live|"
               "fleet_live_hedged|scenario_pack> [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
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
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return Usage();

  perfbench::Report report;
  const char* threads = std::getenv("ADS_THREADS");
  report.Meta("workload", options.workload);
  report.Meta("seed", std::to_string(options.seed));
  report.Meta("seconds", std::to_string(options.seconds));
  report.Meta("trace", options.trace ? "1" : "0");
  report.Meta("build_type", PERFBENCH_BUILD_TYPE);
  report.Meta("simd", ads::common::SimdLevelName(
                          ads::common::ActiveSimdLevel()));
  report.Meta("ads_threads", threads != nullptr ? threads : "");
  report.Meta("nproc", std::to_string(std::thread::hardware_concurrency()));

  ads::telemetry::Tracer tracer;
  perfbench::Spans spans(options.trace ? &tracer : nullptr);
  if (options.workload == "tpch_mix") {
    perfbench::RunTpchMix(options, spans, &report);
  } else if (options.workload == "fleet_live") {
    perfbench::RunFleetLive(options, false, spans, &report);
  } else if (options.workload == "fleet_live_hedged") {
    perfbench::RunFleetLive(options, true, spans, &report);
  } else if (options.workload == "scenario_pack") {
    perfbench::RunScenarioPack(options, spans, &report);
  } else {
    return Usage();
  }

  report.Set("failed_frac",
             report.attempted() == 0
                 ? 1.0
                 : static_cast<double>(report.failed()) / report.attempted(),
             "ratio");
  if (options.trace) {
    // Per-layer self time from the span rollups, and the Chrome trace.
    const std::vector<ads::telemetry::Span> recorded = tracer.Snapshot();
    const ads::telemetry::SpanTree tree(recorded);
    for (const auto& [name, agg] : tree.AggregateByKind()) {
      report.Set("self_ms." + name, agg.self_seconds * 1e3, "ms");
    }
    std::filesystem::create_directories(options.out_dir);
    const std::string path = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".trace.json";
    std::ofstream(path) << ads::telemetry::ChromeTraceJson(recorded);
    report.Meta("chrome_trace", path);
  }

  std::cout << report.Table();
  for (const std::string& error : report.errors()) {
    std::cout << "  ERROR " << error << "\n";
  }
  std::cout << report.FullJson() << std::endl;
  return 0;
}
