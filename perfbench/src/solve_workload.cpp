// solve-mid / solve-dense: repeated one-shot deterministic solves
// (d1lc::solve_d1lc) of one generated instance.

#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>

#include "checks.hpp"
#include "common.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/util/parallel.hpp"
#include "pdc/util/timer.hpp"

namespace perfbench {

namespace {

// At least this many solves, so every run compares a repeat.
constexpr int kMinSolves = 2;

pdc::Graph generate(bool dense, std::uint64_t seed) {
  // solve-dense: the `--gen core --n 10000 --p 0.001` instance (a
  // 1000-node clique core over a sparse periphery, Δ≈1008).
  // solve-mid: the 50k trace-smoke instance (Δ≈41).
  return dense ? pdc::gen::core_periphery(10000, 1000, 0.001, 0.3, seed)
               : pdc::gen::gnp(50000, 0.0004, seed);
}

/// The input check: make_degree_plus_one must hand the program the
/// palettes {0, ..., deg(v)} that check_degree_plus_one assumes.
bool palettes_are_degree_plus_one(const pdc::D1lcInstance& inst) {
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v) {
    const auto pal = inst.palettes.palette(v);
    if (pal.size() != inst.graph.degree(v) + 1) return false;
    for (std::size_t c = 0; c < pal.size(); ++c)
      if (pal[c] != static_cast<Color>(c)) return false;
  }
  return true;
}

/// Per-layer figures of one traced solve.
Values layer_values(const pdc::d1lc::SolveResult& r, const SpanLedger& spans) {
  Values v = engine_values();

  double searches = 0, empty = 0, empty_ms = 0, failures = 0, deferred = 0;
  for (const auto& pass : r.middle_reports) {
    for (const auto& step : pass.steps) {
      ++searches;
      failures += static_cast<double>(step.ssp_failures);
      deferred += static_cast<double>(step.deferred_new);
      if (step.participants == 0) {
        ++empty;
        empty_ms += step.search.wall_ms;
      }
    }
  }
  v["lemma10.searches"] = searches;
  v["lemma10.empty_searches"] = empty;
  v["lemma10.empty_search_ms"] = empty_ms;
  v["lemma10.ssp_failures"] = failures;
  v["lemma10.deferred"] = deferred;
  v["lemma10.search_ms"] = spans.total_ms("lemma10.search");
  v["lemma10.commit_replay_ms"] = spans.total_ms("lemma10.commit_replay");
  v["estimator.prepare_ms"] = spans.total_ms("estimator.prepare");
  v["hknt.decomposition_ms"] = spans.total_ms("hknt.decomposition");
  v["hknt.color_sparse_ms"] = spans.total_ms("hknt.color_sparse");
  v["hknt.color_dense_ms"] = spans.total_ms("hknt.color_dense");
  v["d1lc.partition_ms"] = spans.total_ms("d1lc.partition");
  v["d1lc.low_degree_ms"] = spans.total_ms("d1lc.low_degree");
  v["d1lc.partition_levels"] = static_cast<double>(r.partition_levels);
  v["d1lc.middle_passes"] = static_cast<double>(r.middle_passes_run);

  v["mpc.rounds"] = static_cast<double>(r.ledger.rounds());
  double partition_rounds = 0;
  for (const auto& [phase, rounds] : r.ledger.rounds_by_phase()) {
    // "partition(level k)" per recursion level; the "(parallel)" bins
    // hold whole sub-solves and are not partition work.
    if (phase.rfind("partition(level", 0) == 0 &&
        phase.find("(parallel)") == std::string::npos)
      partition_rounds += static_cast<double>(rounds);
    else if (phase == "decomposition" || phase == "color-sparse" ||
             phase == "color-dense" || phase == "low-degree")
      v["mpc.rounds." + phase] = static_cast<double>(rounds);
  }
  v["mpc.rounds.partition"] = partition_rounds;
  v["mpc.peak_local_words"] = static_cast<double>(r.ledger.peak_local_space());
  v["mpc.peak_global_words"] = static_cast<double>(r.ledger.peak_global_space());
  return v;
}

}  // namespace

RunResult run_solve(const RunConfig& cfg) {
  const bool dense = cfg.workload == "solve-dense";
  RunResult out;
  // The solver's OpenMP team is the whole machine; the benchmark's own
  // thread is the team's primary thread.
  const int team = std::min(cfg.cpus, 4);
  pdc::set_threads(team);

  pdc::d1lc::SolverOptions opt;  // the pdc_solve defaults
  opt.l10.seed_bits = 6;

  SpanLedger run_spans;
  std::vector<double> setup_ms, solve_ms;
  std::vector<Values> layers;
  std::optional<pdc::D1lcInstance> inst;
  std::optional<SolveFingerprint> first;
  std::uint64_t colors_used = 0, mpc_rounds = 0;
  // The solver's memory: peak resident set after the first solve minus
  // the resident set once the first instance exists.
  double rss_base_mb = 0.0, rss_solver_mb = 0.0;
  pdc::Timer window;
  while (static_cast<int>(solve_ms.size()) < kMinSolves ||
         window.seconds() < cfg.seconds) {
    // The instance is rebuilt every round, so set-up samples spread over
    // the whole run as the solves do (host noise drifts over minutes).
    inst.reset();
    pdc::Timer t;
    {
      pdc::obs::Span span("perfbench.graph_gen");
      inst = pdc::make_degree_plus_one(generate(dense, cfg.seed));
    }
    setup_ms.push_back(t.millis());
    const pdc::Graph& g = inst->graph;
    if (!first && !palettes_are_degree_plus_one(*inst)) {
      out.correct = false;
      out.notes.push_back("input palettes are not {0..deg(v)}");
    }
    if (!first) rss_base_mb = rss_mb();
    if (cfg.trace) {
      run_spans.fold();
      pdc::obs::Metrics::global().clear();
    }

    t.reset();
    pdc::d1lc::SolveResult r;
    {
      pdc::obs::Span span("perfbench.solve");
      r = pdc::d1lc::solve_d1lc(*inst, opt);
    }
    solve_ms.push_back(t.millis());
    ++out.attempted;

    std::ostringstream err;
    const ColoringVerdict verdict = check_degree_plus_one(g, r.coloring);
    if (!verdict.ok()) err << verdict.error << "; ";
    SolveFingerprint fp = fingerprint(r);
    if (!first) {
      first = std::move(fp);
      colors_used = verdict.colors_used;
      mpc_rounds = r.ledger.rounds();
      // Later rounds add allocator fragmentation no user of a single
      // solve sees.
      rss_solver_mb = peak_rss_mb() - rss_base_mb;
    } else {
      const std::string diff = compare_repeat(*first, fp);
      if (!diff.empty()) err << diff << "; ";
    }
    const std::string l10 = check_lemma10(r.middle_reports);
    if (!l10.empty()) err << l10;
    if (!err.str().empty()) {
      ++out.failed;
      std::cerr << "perfbench: solve " << solve_ms.size()
                << " failed: " << err.str() << "\n";
    }

    if (cfg.trace) {
      SpanLedger spans;
      spans.fold();
      layers.push_back(layer_values(r, spans));
      run_spans.absorb(spans);
    }
  }
  const pdc::Graph& g = inst->graph;

  out.end_to_end["setup_s"] = median(setup_ms) / 1000.0;
  out.end_to_end["call_p50_ms"] = median(solve_ms);
  out.end_to_end["colors_used"] = static_cast<double>(colors_used);
  out.end_to_end["peak_rss_mb"] = rss_solver_mb;

  std::ostringstream note;
  note << "instance n=" << g.num_nodes() << " m=" << g.num_edges()
       << " Delta=" << g.max_degree() << " solves=" << solve_ms.size()
       << " omp_team=" << team << " mpc_rounds=" << mpc_rounds
       << " setup_ms_min=" << *std::min_element(setup_ms.begin(), setup_ms.end())
       << " setup_ms_max=" << *std::max_element(setup_ms.begin(), setup_ms.end())
       << " solve_ms_min=" << *std::min_element(solve_ms.begin(), solve_ms.end())
       << " solve_ms_max=" << *std::max_element(solve_ms.begin(), solve_ms.end())
       << " rss_before_solve_mb=" << rss_base_mb;
  out.notes.push_back(note.str());

  if (cfg.trace) {
    out.per_layer = median_per_key(layers);
    out.per_layer["graph.gen_ms"] = median(setup_ms);
    out.per_layer["obs.spans"] = static_cast<double>(run_spans.spans());
    std::ostringstream table;
    run_spans.print(table);
    out.notes.push_back(table.str());
  }
  return out;
}

}  // namespace perfbench
