#pragma once
// Shared pieces of the benchmark's workloads: the run configuration, the
// result every workload fills, the metric lists, order statistics, and
// the span ledger that turns the program's obs spans into per-layer
// totals and self times.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int cpus = 1;  // CPUs this process may run on
};

/// Metric name -> value. A workload fills only the metrics that apply to
/// it; the printer reports 0 for a per-layer metric a workload never
/// exercises.
using Values = std::map<std::string, double>;

struct RunResult {
  /// Run-level checks (inputs, end-of-run state) all passed.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Values end_to_end;
  Values per_layer;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> notes;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by every workload (BENCHMARK.json
/// lists the same names).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"call_p50_ms", "ms"},
    {"colors_used", "count"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric the traced run reports.
inline constexpr MetricDef kPerLayer[] = {
    {"graph.gen_ms", "ms"},
    {"baseline.greedy_ms", "ms"},
    {"engine.search_ms.enumerating", "ms"},
    {"engine.search_ms.analytic", "ms"},
    {"engine.search_ms.prefix", "ms"},
    {"engine.evaluations", "count"},
    {"engine.sweeps", "count"},
    {"engine.formula_evals", "count"},
    {"engine.junta_evals", "count"},
    {"lemma10.search_ms", "ms"},
    {"lemma10.commit_replay_ms", "ms"},
    {"lemma10.searches", "count"},
    {"lemma10.empty_searches", "count"},
    {"lemma10.empty_search_ms", "ms"},
    {"lemma10.ssp_failures", "count"},
    {"lemma10.deferred", "count"},
    {"estimator.prepare_ms", "ms"},
    {"hknt.decomposition_ms", "ms"},
    {"hknt.color_sparse_ms", "ms"},
    {"hknt.color_dense_ms", "ms"},
    {"d1lc.partition_ms", "ms"},
    {"d1lc.low_degree_ms", "ms"},
    {"d1lc.partition_levels", "count"},
    {"d1lc.middle_passes", "count"},
    {"mpc.rounds", "count"},
    {"mpc.rounds.decomposition", "count"},
    {"mpc.rounds.color-sparse", "count"},
    {"mpc.rounds.color-dense", "count"},
    {"mpc.rounds.low-degree", "count"},
    {"mpc.rounds.partition", "count"},
    {"mpc.peak_local_words", "words"},
    {"mpc.peak_global_words", "words"},
    {"service.publish_ms", "ms"},
    {"service.chunks_rebuilt", "count"},
    {"service.recolor_ms", "ms"},
    {"service.damaged_nodes", "count"},
    {"service.cache_hits", "count"},
    {"service.cache_misses", "count"},
    {"service.full_resolves", "count"},
    {"service.compactions", "count"},
    {"service.warm_start_ms", "ms"},
    {"obs.spans", "count"},
};

RunResult run_solve(const RunConfig& cfg);
RunResult run_churn(const RunConfig& cfg);

/// Order statistic by linear interpolation between closest ranks
/// (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Per-metric median across operations: each Values holds one
/// operation's per-layer figures.
Values median_per_key(const std::vector<Values>& samples);

/// The engine.* per-layer figures from the global metrics registry:
/// search wall time per plane and the work counters.
Values engine_values();

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();
/// Resident set of this process now, in MB.
double rss_mb();

/// Totals of the program's obs spans, folded in batches so span memory
/// stays bounded. Self time is a span's duration minus the time its
/// direct children (spans nested inside it on the same thread) cover.
class SpanLedger {
 public:
  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  /// Moves every finished span out of the tracer into these totals.
  /// Call only while no span is open on any thread: a span that
  /// finishes after its children were folded keeps their time as self.
  void fold();
  void absorb(const SpanLedger& other);

  double total_ms(const std::string& name) const;
  std::uint64_t spans() const { return spans_; }
  /// One line per span name: count, total and self milliseconds.
  void print(std::ostream& os) const;

 private:
  std::map<std::string, Totals> by_name_;
  std::uint64_t spans_ = 0;
};

}  // namespace perfbench
