// Sharded-backend CI smoke: one Lemma-10 seed search executed on a
// small mpc::Cluster (strict capacity checks on) must return the exact
// Selection the shared-memory engine returns, with the converge-cast
// word volume on budget — every non-root machine ships one block-wide
// partial per sweep, so words == (p - 1) * evaluations — and the
// cluster ledger advancing by exactly the rounds the search reports.
// Exits non-zero on any mismatch; CI runs it after the unit tests.

#include <cstdint>
#include <iostream>

#include "pdc/derand/lemma10.hpp"
#include "pdc/engine/sharded/sharded_search.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/hknt/procedures.hpp"
#include "pdc/mpc/cluster.hpp"
#include "pdc/obs/cli.hpp"
#include "pdc/util/cli.hpp"
#include "pdc/util/table.hpp"

using namespace pdc;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  obs::CliSession obs_session(args);
  // Dense enough, with tight degree+1 palettes, that some seeds do
  // produce SSP failures — a flat objective would make the equality
  // check vacuous.
  Graph g = gen::gnp(400, 0.06, 77);
  D1lcInstance inst = make_degree_plus_one(g);
  hknt::HkntConfig cfg;
  hknt::TryRandomColorProc proc(
      cfg, hknt::TryRandomColorProc::Ssp::kSlackTwiceDegree, "smoke");
  derand::ColoringState state(inst.graph, inst.palettes);

  derand::Lemma10Options opt;
  opt.strategy = derand::SeedStrategy::kPrefixWalk;
  opt.seed_bits = 6;
  derand::ChunkAssignment chunks =
      derand::assign_chunks(g, proc.tau(), opt, nullptr);

  engine::Selection shared =
      derand::lemma10_seed_selection(proc, state, chunks, opt);

  const std::uint32_t p = 9;
  mpc::Config mcfg;
  mcfg.n = g.num_nodes();
  mcfg.phi = 0.5;
  mcfg.local_space_words = 256;  // tight: forces a small fan-in tree
  mcfg.num_machines = p;
  mpc::Cluster cluster(mcfg, /*strict=*/true);
  opt.search.backend = engine::SearchBackend::kSharded;
  opt.search.cluster = &cluster;
  engine::Selection dist =
      derand::lemma10_seed_selection(proc, state, chunks, opt);

  Table t("Sharded smoke: Lemma-10 search, shared vs sharded backend",
          {"backend", "seed", "cost", "mean", "evals", "sweeps", "rounds",
           "cc_words", "max_load"});
  t.row({"shared", std::to_string(shared.seed), Table::num(shared.cost, 1),
         Table::num(shared.mean_cost, 3),
         std::to_string(shared.stats.evaluations),
         std::to_string(shared.stats.sweeps), "-", "-", "-"});
  t.row({"sharded", std::to_string(dist.seed), Table::num(dist.cost, 1),
         Table::num(dist.mean_cost, 3),
         std::to_string(dist.stats.evaluations),
         std::to_string(dist.stats.sweeps),
         std::to_string(dist.stats.sharded.rounds),
         std::to_string(dist.stats.sharded.words),
         std::to_string(dist.stats.sharded.max_machine_load)});
  t.print();

  if (dist.seed != shared.seed || dist.cost != shared.cost ||
      dist.mean_cost != shared.mean_cost) {
    std::cout << "REGRESSION: sharded Selection differs from the "
                 "shared-memory engine's\n";
    return 1;
  }
  const std::uint64_t word_budget =
      static_cast<std::uint64_t>(p - 1) * dist.stats.evaluations;
  if (dist.stats.sharded.words > word_budget) {
    std::cout << "REGRESSION: converge-cast words ("
              << dist.stats.sharded.words << ") exceed the budget ("
              << word_budget << ")\n";
    return 1;
  }
  if (cluster.ledger().rounds() != dist.stats.sharded.rounds ||
      dist.stats.sharded.rounds == 0) {
    std::cout << "REGRESSION: ledger rounds (" << cluster.ledger().rounds()
              << ") disagree with the search's accounting ("
              << dist.stats.sharded.rounds << ")\n";
    return 1;
  }
  if (!cluster.ledger().violations().empty()) {
    std::cout << "REGRESSION: capacity violations recorded:\n";
    for (const auto& v : cluster.ledger().violations())
      std::cout << "  " << v << "\n";
    return 1;
  }
  std::cout << "Claim check: identical Selection, words on budget, ledger\n"
               "rounds == the search's converge-cast accounting — the\n"
               "Lemma-10 aggregation ran genuinely on the substrate.\n";
  return 0;
}
