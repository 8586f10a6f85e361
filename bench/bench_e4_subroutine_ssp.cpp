// Experiment E4 — Lemma 13: each HKNT22 subroutine is a normal
// procedure, i.e. its strong success property holds w.h.p. under true
// randomness.
//
// For each subroutine we run the pipeline to the point where that
// subroutine executes, then measure the SSP satisfaction rate of its
// participants across random seeds, on a sparse instance (GenerateSlack,
// TryRandomColor, MultiTrial path) and a dense instance
// (SynchColorTrial, PutAside path).

#include <iostream>

#include "pdc/graph/generators.hpp"
#include "pdc/hknt/color_middle.hpp"
#include "pdc/obs/cli.hpp"
#include "pdc/util/bench_json.hpp"
#include "pdc/util/cli.hpp"
#include "pdc/util/stats.hpp"
#include "pdc/util/table.hpp"

using namespace pdc;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  obs::CliSession obs_session(args);
  util::BenchJson json;
  Table t("E4 / Lemma 13: per-subroutine SSP satisfaction (randomized)",
          {"instance", "subroutine", "participants(mean)", "ssp_rate",
           "runs"});

  struct Inst {
    const char* name;
    D1lcInstance inst;
  };
  std::vector<Inst> instances;
  instances.push_back({"sparse-gnp",
                       make_degree_plus_one(gen::gnp(2000, 0.015, 5))});
  instances.push_back(
      {"planted-cliques",
       make_degree_plus_one(gen::planted_cliques(8, 20, 0.4, 7).graph)});
  instances.push_back(
      {"core-periphery",
       make_degree_plus_one(gen::core_periphery(1500, 60, 0.01, 0.3, 9))});

  const int kRuns = 5;
  for (auto& [name, inst] : instances) {
    // Aggregate SSP stats per procedure name prefix across runs.
    std::map<std::string, std::pair<Summary, Summary>> by_proc;  // part, rate
    for (int run = 0; run < kRuns; ++run) {
      derand::ColoringState state(inst.graph, inst.palettes);
      hknt::MiddleOptions mo;
      mo.l10.strategy = derand::SeedStrategy::kTrueRandom;
      mo.l10.defer_failures = false;
      mo.l10.true_random_seed = 40 + run;
      hknt::MiddleReport rep = hknt::color_middle(state, inst, mo, nullptr);
      for (const auto& s : rep.steps) {
        if (s.participants == 0) continue;
        // Bucket by procedure family (strip the instance-specific label).
        std::string key = s.procedure.substr(0, s.procedure.find('/'));
        by_proc[key].first.add(static_cast<double>(s.participants));
        by_proc[key].second.add(
            1.0 - static_cast<double>(s.ssp_failures) /
                      static_cast<double>(s.participants));
      }
    }
    for (auto& [proc, stats] : by_proc) {
      t.row({name, proc, Table::num(stats.first.mean(), 0),
             Table::num(stats.second.mean(), 4), std::to_string(kRuns)});
      json.obj()
          .field("leg", "randomized")
          .field("instance", name)
          .field("subroutine", proc)
          .field("participants_mean", stats.first.mean())
          .field("ssp_rate", stats.second.mean())
          .field("runs", static_cast<std::int64_t>(kRuns));
    }
  }
  t.print();

  // Derandomized leg: the same subroutines with the production
  // (exhaustive) seed selection, so the engine's per-procedure SearchStats reach this
  // harness too (E4 previously only saw seed_evaluations). The sweep
  // budget is asserted the way bench_e10 does: batched sweeps must stay
  // strictly below one-pass-per-evaluation.
  Table ts("E4 derandomized: per-subroutine seed-search accounting",
           {"instance", "subroutine", "seed_evals", "sweeps", "batch",
            "wall_ms"});
  std::string regression;
  for (auto& [name, inst] : instances) {
    derand::ColoringState state(inst.graph, inst.palettes);
    hknt::MiddleOptions mo;
    mo.l10.strategy = derand::SeedStrategy::kExhaustive;
    mo.l10.seed_bits = 4;
    hknt::MiddleReport rep = hknt::color_middle(state, inst, mo, nullptr);
    std::map<std::string, engine::SearchStats> by_proc;
    for (const auto& s : rep.steps) {
      std::string key = s.procedure.substr(0, s.procedure.find('/'));
      by_proc[key].absorb(s.search);
    }
    for (auto& [proc, st] : by_proc) {
      ts.row({name, proc, std::to_string(st.evaluations),
              std::to_string(st.sweeps), std::to_string(st.batch),
              Table::num(st.wall_ms, 1)});
      json.obj()
          .field("leg", "derandomized")
          .field("instance", name)
          .field("subroutine", proc)
          .field("seed_evals", st.evaluations)
          .field("sweeps", st.sweeps)
          .field("batch", st.batch)
          .field("wall_ms", st.wall_ms);
      // Reported after the table prints so a CI failure still shows
      // the full accounting.
      if (regression.empty() && st.evaluations > 0 &&
          st.sweeps >= st.evaluations) {
        regression = "REGRESSION: " + proc + " on " + name +
                     ": engine sweeps (" + std::to_string(st.sweeps) +
                     ") not below evaluations (" +
                     std::to_string(st.evaluations) + ")";
      }
    }
  }
  ts.print();
  if (args.has("json")) json.write(args.get("json", ""));
  if (!regression.empty()) {
    std::cout << regression << "\n";
    return 1;
  }

  std::cout << "Claim check: ssp_rate near 1.0 for every subroutine — the\n"
               "'succeeds w.h.p.' premise of Definition 5 / Lemma 13. Rates\n"
               "dip only where participants have little slack (the nodes\n"
               "the framework defers and recurses on). The derandomized\n"
               "table shows every subroutine's search paying sweeps <<\n"
               "evaluations through the engine's batched passes.\n";
  return 0;
}
