// Experiment E10 — design ablations:
//  (a) seed-selection strategy: exhaustive vs the prefix walk (the
//      method of conditional expectations; same guarantee, and here the
//      same totals pass);
//  (b) chunk-assignment discipline: proper G^{4τ} coloring vs
//      per-node-unique chunks vs deliberately shared chunks (the failure
//      mode Lemma 10's power coloring exists to prevent);
//  (c) Theorem-12 recursion depth (middle_passes) vs how much the greedy
//      tail has to absorb.

#include <cstdint>
#include <iostream>

#include "pdc/d1lc/solver.hpp"
#include "pdc/derand/lemma10.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/hknt/procedures.hpp"
#include "pdc/obs/cli.hpp"
#include "pdc/prg/kwise_source.hpp"
#include "pdc/util/cli.hpp"
#include "pdc/util/table.hpp"
#include "pdc/util/timer.hpp"

using namespace pdc;
using derand::SeedStrategy;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  obs::CliSession obs_session(args);
  Graph g = gen::gnp(2500, 0.012, 19);
  D1lcInstance inst =
      make_random_lists(g, static_cast<Color>(g.max_degree()) + 50, 12, 3);
  hknt::HkntConfig cfg;
  hknt::TryRandomColorProc proc(
      cfg, hknt::TryRandomColorProc::Ssp::kSlackTwiceDegree, "e10");

  Table ta("E10a: exhaustive vs prefix-walk (conditional expectations) "
           "seed search",
           {"strategy", "seed_bits", "evals", "sweeps", "legacy_sweeps",
            "failures", "mean", "wall_ms"});
  std::string regression;
  for (int d : {6, 8, 10}) {
    for (SeedStrategy s :
         {SeedStrategy::kExhaustive, SeedStrategy::kPrefixWalk}) {
      derand::ColoringState state(inst.graph, inst.palettes);
      derand::Lemma10Options opt;
      opt.strategy = s;
      opt.seed_bits = d;
      Timer timer;
      auto rep = derand::derandomize_procedure(proc, state, opt, nullptr);
      // The pre-engine scalar route paid one full-graph aggregation
      // sweep per cost evaluation: 2^d for exhaustive, 2^{d+1}-2 (+1
      // final) for the enumerated conditional expectations.
      const std::uint64_t legacy_sweeps =
          s == SeedStrategy::kExhaustive ? (1ULL << d)
                                         : (1ULL << (d + 1)) - 1;
      ta.row({s == SeedStrategy::kExhaustive ? "exhaustive" : "prefix-walk",
              std::to_string(d), std::to_string(rep.seed_evaluations),
              std::to_string(rep.search.sweeps),
              std::to_string(legacy_sweeps),
              std::to_string(rep.ssp_failures), Table::num(rep.mean_failures, 2),
              Table::num(timer.millis(), 1)});
      // Reported after the table prints so a CI failure still shows
      // the full accounting (same discipline as bench_e1 / bench_e4).
      if (regression.empty() && rep.search.sweeps >= legacy_sweeps) {
        regression = "REGRESSION: engine sweeps (" +
                     std::to_string(rep.search.sweeps) +
                     ") not below the pre-engine baseline (" +
                     std::to_string(legacy_sweeps) + ")";
      }
      if (regression.empty() &&
          static_cast<double>(rep.ssp_failures) > rep.mean_failures) {
        regression = "REGRESSION: chosen seed's failures (" +
                     std::to_string(rep.ssp_failures) +
                     ") exceed the seed-space mean (" +
                     std::to_string(rep.mean_failures) + ")";
      }
    }
  }
  ta.print();
  if (!regression.empty()) {
    std::cout << regression << "\n";
    return 1;
  }

  Table tb("E10b: chunk-assignment discipline (TryRandomColor progress)",
           {"chunk_mode", "chunks", "colored", "ssp_failures"});
  struct ChunkCase {
    const char* name;
    bool force_unique;
    std::uint32_t shared;
  };
  for (auto c : {ChunkCase{"power-coloring(G^4)", false, 0},
                 ChunkCase{"unique-per-node", true, 0},
                 ChunkCase{"shared-16(violates)", false, 16},
                 ChunkCase{"shared-2(violates)", false, 2}}) {
    derand::ColoringState state(inst.graph, inst.palettes);
    derand::Lemma10Options opt;
    opt.strategy = SeedStrategy::kExhaustive;
    opt.seed_bits = 6;
    opt.force_unique_chunks = c.force_unique;
    opt.shared_chunk_count = c.shared;
    auto rep = derand::derandomize_procedure(proc, state, opt, nullptr);
    std::uint64_t colored =
        state.num_nodes() - state.count_uncolored();
    tb.row({c.name, std::to_string(rep.chunks), std::to_string(colored),
            std::to_string(rep.ssp_failures)});
  }
  tb.print();

  Table tc("E10c: Theorem-12 recursion depth vs greedy-tail size",
           {"middle_passes", "colored_middle", "colored_low_degree",
            "rounds", "valid"});
  Graph g2 = gen::core_periphery(1500, 80, 0.012, 0.3, 23);
  D1lcInstance inst2 = make_degree_plus_one(g2);
  for (int passes : {0, 1, 2, 3}) {
    d1lc::SolverOptions opt;
    opt.middle_passes = passes;
    opt.l10.seed_bits = 5;
    auto r = solve_d1lc(inst2, opt);
    tc.row({std::to_string(passes), std::to_string(r.colored_middle),
            std::to_string(r.colored_low_degree),
            std::to_string(r.ledger.rounds()), r.valid ? "yes" : "NO"});
  }
  tc.print();

  // (d) Bounded independence vs full randomness — the Related-Work
  // contrast motivating PRGs: hash families cap the independence, and
  // coloring-trial success should track the cap only mildly on sparse
  // instances but matter where analyses need Δ-wise independence.
  Table td("E10d: k-wise independence vs full randomness (TryRandomColor)",
           {"source", "committed", "ssp_failures"});
  {
    hknt::TryRandomColorProc p2(
        cfg, hknt::TryRandomColorProc::Ssp::kSlackTwiceDegree, "e10d");
    auto run_with = [&](const prg::BitSourceFactory& src, const char* name) {
      derand::ColoringState state(inst.graph, inst.palettes);
      auto run = p2.simulate(state, src);
      std::uint64_t committed = 0, failures = 0;
      for (NodeId v = 0; v < state.num_nodes(); ++v) {
        committed += (run.proposed[v] != kNoColor);
        failures += !p2.ssp(state, run, v);
      }
      td.row({name, std::to_string(committed), std::to_string(failures)});
    };
    for (int k : {1, 2, 4, 16}) {
      prg::KWiseSource src(k, 77);
      run_with(src, ("k-wise(k=" + std::to_string(k) + ")").c_str());
    }
    prg::TrueRandomSource full(77);
    run_with(full, "full-independence");
  }
  td.print();

  std::cout << "Claim check: (a) both searches satisfy failures <= mean;\n"
               "the engine's node-major batched sweeps aggregate a whole\n"
               "seed block per pass, so sweeps << evals (the pre-engine\n"
               "scalar route paid one sweep per evaluation, ~2x of them\n"
               "for enumerated conditional expectations);\n"
               "(b) shared chunks crater progress — nearby nodes draw\n"
               "identical bits and collide (why Lemma 10 colors G^{4τ});\n"
               "(c) more passes shift work from the low-degree finisher to\n"
               "the ColorMiddle machinery.\n";
  return 0;
}
