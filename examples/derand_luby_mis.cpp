// The paper's own exemplar (Section 4.1): Luby's MIS as a normal
// distributed procedure, derandomized with the framework's machinery
// (distance-4 chunk coloring + per-round seed selection by conditional
// expectations), side by side with the randomized original.

#include <iostream>

#include "pdc/baseline/luby.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/obs/cli.hpp"
#include "pdc/util/cli.hpp"

using namespace pdc;
using namespace pdc::baseline;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: derand_luby_mis [--n N] [--p P]\n"
              << obs::CliSession::help();
    return 0;
  }
  obs::CliSession obs_session(args);
  Graph g = gen::gnp(static_cast<NodeId>(args.get_int("n", 5000)),
                     args.get_double("p", 0.002), 99);
  std::cout << "graph: n=" << g.num_nodes() << " m=" << g.num_edges()
            << " Delta=" << g.max_degree() << "\n\n";

  MisResult rnd = luby_mis(g, /*seed=*/1);
  auto [ri, rm] = check_mis(g, rnd.in_mis);
  std::uint64_t rnd_size = 0;
  for (auto b : rnd.in_mis) rnd_size += b;
  std::cout << "randomized Luby:   rounds=" << rnd.rounds
            << " |MIS|=" << rnd_size
            << " independent=" << (ri ? "yes" : "NO")
            << " maximal=" << (rm ? "yes" : "NO") << "\n";

  derand::Lemma10Options opt;
  opt.seed_bits = 6;
  opt.strategy = derand::SeedStrategy::kPrefixWalk;
  MisResult det = luby_mis_derandomized(g, opt, /*max_rounds=*/32);
  auto [di, dm] = check_mis(g, det.in_mis);
  std::uint64_t det_size = 0;
  for (auto b : det.in_mis) det_size += b;
  std::cout << "derandomized Luby: rounds=" << det.rounds
            << " |MIS|=" << det_size
            << " independent=" << (di ? "yes" : "NO")
            << " maximal=" << (dm ? "yes" : "NO")
            << " greedy_tail=" << det.greedy_added << "\n\n";

  std::cout << "The derandomized run is reproducible: every round picks the\n"
               "PRG seed minimizing undecided nodes via the method of\n"
               "conditional expectations; the leftover 'deferred' nodes are\n"
               "finished greedily (the Theorem-12 tail).\n";
  return (ri && rm && di && dm) ? 0 : 1;
}
