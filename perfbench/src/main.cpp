// pdc_perfbench — one benchmark for the solve pipeline and the coloring
// service. See perfbench/README.md.
//
//   pdc_perfbench --workload solve-mid|solve-dense|service-churn
//                 --seed N --seconds S --trace 0|1
//   pdc_perfbench --selftest
//
// The last line of standard output is the JSON result: end-to-end
// metrics with --trace 0, per-layer metrics (obs tracing and the metrics
// registry switched on) with --trace 1.

#include <sched.h>

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/util/cli.hpp"

namespace {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Shortest text that reads back as the same double.
std::string number(double x) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, res.ptr);
}

template <std::size_t N>
void print_metrics(const perfbench::MetricDef (&defs)[N],
                   const perfbench::Values& values, bool zero_if_absent) {
  std::cout << "\"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    auto it = values.find(defs[i].name);
    PDC_CHECK_MSG(zero_if_absent || it != values.end(),
                  "workload did not measure " << defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::cout << (i ? ", " : "") << "\"" << defs[i].name
              << "\": {\"value\": " << number(v) << ", \"unit\": \""
              << defs[i].unit << "\"}";
  }
  std::cout << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const pdc::CliArgs args(argc, argv);
  const std::string bad = perfbench::self_test();
  if (!bad.empty()) {
    std::cerr << "perfbench: checker self-test failed: " << bad << "\n";
    return 3;
  }
  if (args.has("selftest")) {
    std::cout << "perfbench: checker self-test passed\n";
    return 0;
  }

  perfbench::RunConfig cfg;
  cfg.workload = args.get("workload", "");
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.seconds = args.get_double("seconds", 10.0);
  cfg.trace = args.get_int("trace", 0) != 0;
  cfg.cpus = usable_cpus();

  if (cfg.trace) {
    pdc::obs::set_tracing(true);
    pdc::obs::set_metrics(true);
  }
  perfbench::RunResult r;
  if (cfg.workload == "solve-mid" || cfg.workload == "solve-dense") {
    r = perfbench::run_solve(cfg);
  } else if (cfg.workload == "service-churn") {
    r = perfbench::run_churn(cfg);
  } else {
    std::cerr << "perfbench: unknown --workload '" << cfg.workload
              << "' (solve-mid|solve-dense|service-churn)\n";
    return 2;
  }

  // run.py sets it; the figures hold only under the policy printed here.
  const char* wait_policy = std::getenv("OMP_WAIT_POLICY");
  std::cout << "workload=" << cfg.workload << " seed=" << cfg.seed
            << " seconds=" << cfg.seconds << " trace=" << cfg.trace
            << " cpus=" << cfg.cpus << " omp_wait_policy="
            << (wait_policy ? wait_policy : "default") << "\n";
  for (const std::string& note : r.notes) std::cout << note << "\n";
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", ";
  if (cfg.trace)
    print_metrics(perfbench::kPerLayer, r.per_layer, true);
  else
    print_metrics(perfbench::kEndToEnd, r.end_to_end, false);
  std::cout << "}" << std::endl;
  return 0;
}
