// Tests for the sharded seed-search subsystem: shard-plan invariants,
// converge-cast correctness and round/space accounting at small s
// (multi-round fan-in), and the headline differential guarantee — the
// ShardedSeedSearch must return bit-identical Selections to the
// shared-memory SeedSearch on every search route and on the production
// oracles (Lemma-10 SSP failures, low-degree hash trials, Luby rounds),
// with the Cluster's strict capacity checks enabled throughout and the
// Ledger advancing by exactly the analytic converge-cast round count.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "pdc/baseline/luby.hpp"
#include "pdc/baseline/luby_mpc.hpp"
#include "pdc/d1lc/low_degree_mpc.hpp"
#include "pdc/derand/lemma10.hpp"
#include "pdc/engine/seed_search.hpp"
#include "pdc/engine/sharded/converge_cast.hpp"
#include "pdc/engine/sharded/shard_plan.hpp"
#include "pdc/engine/sharded/sharded_search.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/hknt/procedures.hpp"
#include "pdc/util/rng.hpp"

namespace pdc::engine::sharded {
namespace {

mpc::Config cluster_config(std::uint32_t machines, std::uint64_t s,
                           std::uint64_t n = 1000) {
  mpc::Config c;
  c.n = n;
  c.phi = 0.5;
  c.local_space_words = s;
  c.num_machines = machines;
  return c;
}

/// Integer-valued decomposed objective over a graph (same shape as the
/// production oracles): node v contributes 1 under `seed` when its
/// hashed slot collides with a neighbor's.
class CollisionOracle final : public CostOracle {
 public:
  CollisionOracle(const Graph& g, std::uint64_t slots)
      : g_(&g), slots_(slots) {}
  std::size_t item_count() const override { return g_->num_nodes(); }
  double cost(std::uint64_t seed, std::size_t item) const override {
    const NodeId v = static_cast<NodeId>(item);
    const std::uint64_t mine = slot(seed, v);
    for (NodeId u : g_->neighbors(v)) {
      if (slot(seed, u) == mine) return 1.0;
    }
    return 0.0;
  }

 private:
  std::uint64_t slot(std::uint64_t seed, NodeId v) const {
    return mix64(hash_combine(seed, v)) % slots_;
  }
  const Graph* g_;
  std::uint64_t slots_;
};

void expect_same_selection(const Selection& a, const Selection& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.cost, b.cost);            // bit-identical, not just near
  EXPECT_EQ(a.mean_cost, b.mean_cost);  // (doubles compared with ==)
  EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
}

// ---- ShardPlan. ----

TEST(ShardPlan, OwnerModuloMatchesHomeConventionAndBalances) {
  ShardPlan plan = ShardPlan::owner_modulo(10, 3);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(plan.home_of(i), i % 3) << "item " << i;
  EXPECT_EQ(plan.max_load(), 4u);  // ceil(10 / 3)
  // CSR shards partition the items.
  std::vector<bool> seen(10, false);
  for (mpc::MachineId m = 0; m < 3; ++m)
    for (std::uint32_t i : plan.items_of(m)) {
      EXPECT_EQ(plan.home_of(i), m);
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(ShardPlan, FromHomesSpillsOverloadedMachines) {
  // Every item claims machine 0; capacity 2 forces all but two to spill
  // to the least-loaded machines.
  std::vector<mpc::MachineId> homes(7, 0);
  ShardPlan plan = ShardPlan::from_homes(homes, 4, 2);
  EXPECT_LE(plan.max_load(), 2u);
  std::uint64_t total = 0;
  for (mpc::MachineId m = 0; m < 4; ++m) total += plan.items_of(m).size();
  EXPECT_EQ(total, 7u);
  EXPECT_EQ(plan.items_of(0).size(), 2u);  // owner honored up to capacity
}

TEST(ShardPlan, FromHomesRejectsImpossibleCapacity) {
  std::vector<mpc::MachineId> homes(9, 1);
  EXPECT_THROW(ShardPlan::from_homes(homes, 2, 4), check_error);
}

TEST(ShardPlan, MakeChecksLocalSpace) {
  EXPECT_THROW(ShardPlan::make(1000, cluster_config(2, 64)), check_error);
  ShardPlan ok = ShardPlan::make(100, cluster_config(2, 64));
  EXPECT_EQ(ok.max_load(), 50u);
}

// ---- Converge-cast. ----

TEST(ConvergeCast, SumsPartialsExactly) {
  for (std::uint32_t p : {1u, 2u, 5u, 16u}) {
    mpc::Cluster cluster(cluster_config(p, 4096));
    const std::size_t width = 7;
    ConvergeCastStats cc;
    auto totals = converge_cast_sum(
        cluster, width, pick_fan_in(cluster.config(), width),
        [&](mpc::MachineId m, std::int64_t* sink) {
          for (std::size_t k = 0; k < width; ++k)
            sink[k] += static_cast<std::int64_t>(m * width + k) - 3;
        },
        &cc);
    for (std::size_t k = 0; k < width; ++k) {
      std::int64_t expect = 0;
      for (std::uint32_t m = 0; m < p; ++m)
        expect += static_cast<std::int64_t>(m * width + k) - 3;
      EXPECT_EQ(totals[k], expect) << "p=" << p << " k=" << k;
    }
    EXPECT_EQ(cc.payload_words, static_cast<std::uint64_t>(p - 1) * width);
    EXPECT_EQ(cluster.ledger().rounds(), cc.rounds);
    EXPECT_TRUE(cluster.ledger().violations().empty());
  }
}

TEST(ConvergeCast, SmallSpaceForcesMultiRoundFanIn) {
  // s = 64 with width 32 admits fan-in 2 only: a fold-round parent's
  // joint footprint (own partial + one child's) is exactly s. 9
  // machines -> ceil(log2 9) = 4 levels, with strict capacity checks on
  // throughout.
  const std::size_t width = 32;
  mpc::Config cfg = cluster_config(9, 64);
  const std::uint32_t f = pick_fan_in(cfg, width);
  EXPECT_EQ(f, 2u);
  EXPECT_EQ(converge_cast_rounds(9, f), 4u);

  mpc::Cluster cluster(cfg, /*strict=*/true);
  ConvergeCastStats cc;
  auto totals = converge_cast_sum(
      cluster, width, f,
      [&](mpc::MachineId m, std::int64_t* sink) {
        for (std::size_t k = 0; k < width; ++k) sink[k] += m + 1;
      },
      &cc);
  for (std::size_t k = 0; k < width; ++k) EXPECT_EQ(totals[k], 45);  // 1+..+9
  EXPECT_EQ(cc.rounds, 4u);
  EXPECT_EQ(cluster.ledger().rounds(), 4u);
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

TEST(ConvergeCast, AnalyticRoundFormula) {
  EXPECT_EQ(converge_cast_rounds(1, 2), 1u);   // compute round only
  EXPECT_EQ(converge_cast_rounds(2, 2), 1u);
  EXPECT_EQ(converge_cast_rounds(8, 2), 3u);
  EXPECT_EQ(converge_cast_rounds(9, 2), 4u);
  EXPECT_EQ(converge_cast_rounds(9, 3), 2u);
  EXPECT_EQ(converge_cast_rounds(100, 10), 2u);
  EXPECT_EQ(converge_cast_rounds(100, 101), 1u);
}

TEST(ConvergeCast, FanInRespectsLocalSpace) {
  // f * width (own partial + f - 1 children) must fit in s.
  EXPECT_EQ(pick_fan_in(cluster_config(64, 100), 50), 2u);
  EXPECT_EQ(pick_fan_in(cluster_config(64, 160), 50), 3u);
  EXPECT_EQ(pick_fan_in(cluster_config(64, 1 << 20), 8), 64u);  // capped at p
  // Even fan-in 2 needs width <= s / 2.
  EXPECT_THROW(pick_fan_in(cluster_config(4, 10), 6), check_error);
  // An explicit fan-in that can't fit its fold footprint is rejected
  // up front by the cast itself, not by a mid-round capacity throw.
  mpc::Cluster tight(cluster_config(8, 64));
  EXPECT_THROW(converge_cast_sum(tight, 32, 16,
                                 [](mpc::MachineId, std::int64_t*) {}),
               check_error);
}

// ---- Differential: synthetic oracle, both routes. ----

class ShardedDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ShardedDifferential, AllRoutesBitIdenticalToSharedMemory) {
  const std::uint32_t p = static_cast<std::uint32_t>(GetParam());
  Graph g = gen::gnp(240, 0.04, 11);
  CollisionOracle shared_oracle(g, 16), sharded_oracle(g, 16);

  SeedSearch shared(shared_oracle);
  mpc::Cluster cluster(cluster_config(p, 4096, g.num_nodes()),
                       /*strict=*/true);
  ShardedSeedSearch sharded(sharded_oracle, cluster);

  expect_same_selection(shared.exhaustive(96), sharded.exhaustive(96));
  expect_same_selection(shared.prefix_walk(7), sharded.prefix_walk(7));
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

INSTANTIATE_TEST_SUITE_P(MachineCounts, ShardedDifferential,
                         ::testing::Values(1, 3, 8, 17));

TEST(ShardedSeedSearch, LedgerAndWordAccountingMatchAnalyticFormulas) {
  Graph g = gen::gnp(150, 0.05, 3);
  CollisionOracle oracle(g, 8);
  const std::uint32_t p = 6;
  mpc::Cluster cluster(cluster_config(p, 4096, g.num_nodes()));

  ShardedOptions opt;
  opt.search.max_batch = 16;  // 64 seeds -> 4 sweeps of width 16
  opt.fan_in = 2;
  ShardedSeedSearch search(oracle, cluster, opt);
  Selection sel = search.exhaustive(64);

  EXPECT_EQ(sel.stats.sweeps, 4u);
  EXPECT_EQ(sel.stats.batch, 16u);
  const std::uint64_t per_sweep = converge_cast_rounds(p, 2);  // = 3
  EXPECT_EQ(sel.stats.sharded.rounds, 4 * per_sweep);
  EXPECT_EQ(cluster.ledger().rounds(), sel.stats.sharded.rounds);
  EXPECT_EQ(cluster.ledger().rounds_by_phase().at("seed-search(sharded)"),
            sel.stats.sharded.rounds);
  EXPECT_EQ(cluster.ledger().phase(), "init");  // caller phase restored
  // Every non-root machine ships each sweep's 16-word partial once.
  EXPECT_EQ(sel.stats.sharded.words,
            static_cast<std::uint64_t>(p - 1) * sel.stats.evaluations);
  EXPECT_EQ(sel.stats.sharded.max_machine_load, 25u);  // ceil(150 / 6)
}

TEST(ShardedSeedSearch, OpaqueOraclesShardTheSeedBlock) {
  // item_count == 1: the capacity-aware fallback distributes the seed
  // block over machines instead of the (indivisible) item set.
  ScalarOracle shared_oracle(
      [](std::uint64_t seed) { return double((seed * 7 + 3) % 23); });
  ScalarOracle sharded_oracle(
      [](std::uint64_t seed) { return double((seed * 7 + 3) % 23); });
  SeedSearch shared(shared_oracle);
  mpc::Cluster cluster(cluster_config(5, 2048));
  ShardedSeedSearch sharded(sharded_oracle, cluster);
  expect_same_selection(shared.exhaustive(200), sharded.exhaustive(200));
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

TEST(ShardedSeedSearch, RejectsCostsOffTheFixedPointGrid) {
  // 0.3 has no finite binary expansion: encoding it would silently
  // break the bit-identity guarantee, so the adapter must refuse.
  class OffGridOracle final : public CostOracle {
   public:
    std::size_t item_count() const override { return 4; }
    double cost(std::uint64_t, std::size_t) const override { return 0.3; }
  };
  OffGridOracle oracle;
  mpc::Cluster cluster(cluster_config(2, 1024));
  ShardedSeedSearch search(oracle, cluster);
  EXPECT_THROW(search.exhaustive(8), check_error);
  // Dyadic fractions on the grid are fine.
  class DyadicOracle final : public CostOracle {
   public:
    std::size_t item_count() const override { return 4; }
    double cost(std::uint64_t seed, std::size_t) const override {
      return 0.25 * static_cast<double>(seed % 5);
    }
  };
  DyadicOracle shared_oracle, sharded_oracle;
  SeedSearch shared(shared_oracle);
  mpc::Cluster cluster2(cluster_config(3, 1024));
  ShardedSeedSearch sharded(sharded_oracle, cluster2);
  expect_same_selection(shared.exhaustive(40), sharded.exhaustive(40));
}

TEST(ShardedSeedSearch, BlockWidthClampsToLocalSpace) {
  // s = 32 caps the sweep width at s / 2 = 16, well below the resolved
  // batch: a fold-round parent must hold two partials at once.
  Graph g = gen::gnp(60, 0.1, 9);
  CollisionOracle oracle(g, 8);
  mpc::Cluster cluster(cluster_config(4, 32, g.num_nodes()));
  ShardedSeedSearch sharded(oracle, cluster);
  Selection sel = sharded.exhaustive(64);
  EXPECT_LE(sel.stats.batch, 16u);
  EXPECT_GE(sel.stats.sweeps, 4u);
  EXPECT_TRUE(cluster.ledger().violations().empty());

  CollisionOracle ref(g, 8);
  Selection shared = SeedSearch(ref).exhaustive(64);
  expect_same_selection(shared, sel);
}

// ---- Differential: the production oracles. ----

TEST(ShardedProduction, Lemma10SeedSelectionMatchesOnBothStrategies) {
  Graph g = gen::gnp(220, 0.03, 19);
  D1lcInstance inst =
      make_random_lists(g, static_cast<Color>(g.max_degree()) + 20, 10, 3);
  hknt::HkntConfig cfg;
  hknt::TryRandomColorProc proc(
      cfg, hknt::TryRandomColorProc::Ssp::kSlackTwiceDegree, "sharded");
  derand::ColoringState state(inst.graph, inst.palettes);

  for (auto strategy : {derand::SeedStrategy::kExhaustive,
                        derand::SeedStrategy::kPrefixWalk}) {
    derand::Lemma10Options opt;
    opt.strategy = strategy;
    opt.seed_bits = 5;
    derand::ChunkAssignment chunks =
        derand::assign_chunks(g, proc.tau(), opt, nullptr);

    Selection shared = derand::lemma10_seed_selection(proc, state, chunks, opt);

    mpc::Cluster cluster(cluster_config(7, 4096, g.num_nodes()));
    opt.search.backend = SearchBackend::kSharded;
    opt.search.cluster = &cluster;
    Selection dist = derand::lemma10_seed_selection(proc, state, chunks, opt);

    expect_same_selection(shared, dist);
    EXPECT_GT(dist.stats.sharded.rounds, 0u);
    EXPECT_EQ(cluster.ledger().rounds(), dist.stats.sharded.rounds);
    EXPECT_TRUE(cluster.ledger().violations().empty());
  }
}

TEST(ShardedProduction, LowDegreeTrialSelectionMatches) {
  Graph g = gen::gnp(180, 0.04, 7);
  D1lcInstance inst = make_degree_plus_one(g);
  EnumerablePairwiseFamily family(21, 6);
  Coloring none(g.num_nodes(), kNoColor);

  Selection shared = d1lc::low_degree_trial_selection(inst, none, family);
  mpc::Cluster cluster(cluster_config(5, 4096, g.num_nodes()));
  ExecutionPolicy pol;
  pol.backend = SearchBackend::kSharded;
  pol.cluster = &cluster;
  Selection dist = d1lc::low_degree_trial_selection(inst, none, family, pol);
  expect_same_selection(shared, dist);
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

TEST(ShardedProduction, LubySeedSelectionMatchesOnBothStrategies) {
  Graph g = gen::gnp(200, 0.035, 23);
  std::vector<std::uint8_t> status(g.num_nodes(), baseline::kLubyUndecided);
  std::vector<std::uint32_t> chunk_of(g.num_nodes());
  std::iota(chunk_of.begin(), chunk_of.end(), 0u);

  for (auto strategy : {derand::SeedStrategy::kExhaustive,
                        derand::SeedStrategy::kPrefixWalk}) {
    derand::Lemma10Options opt;
    opt.strategy = strategy;
    opt.seed_bits = 4;
    Selection shared = baseline::select_luby_seed_selection(
        g, status, opt, chunk_of, /*round=*/2);

    mpc::Cluster cluster(cluster_config(6, 4096, g.num_nodes()));
    opt.search.backend = SearchBackend::kSharded;
    Selection dist = baseline::select_luby_seed_selection(
        g, status, opt, chunk_of, /*round=*/2, &cluster);
    expect_same_selection(shared, dist);
    EXPECT_TRUE(cluster.ledger().violations().empty());
  }
}

// ---- End-to-end: migrated call sites on the sharded backend. ----

TEST(ShardedEndToEnd, DerandomizedLubyOnClusterMatchesSharedMemory) {
  Graph g = gen::gnp(150, 0.04, 31);
  derand::Lemma10Options opt;
  opt.seed_bits = 4;
  opt.salt = 31;
  opt.strategy = derand::SeedStrategy::kPrefixWalk;

  baseline::MisResult shared = baseline::luby_mis_derandomized(g, opt, 6);

  mpc::Config cfg = cluster_config(4, 16384, g.num_nodes());
  mpc::Cluster cluster(cfg);
  opt.search.backend = SearchBackend::kSharded;
  baseline::MpcMisResult dist =
      baseline::luby_mis_mpc_derandomized(cluster, g, opt, 6);

  EXPECT_EQ(dist.in_mis, shared.in_mis);
  EXPECT_EQ(dist.luby_rounds, shared.rounds);
  EXPECT_EQ(dist.greedy_added, shared.greedy_added);
  EXPECT_EQ(dist.search.evaluations, shared.search.evaluations);
  // The cluster executed 3 rounds per Luby round plus the searches'
  // converge-casts — the aggregation story, on the substrate.
  EXPECT_GT(dist.search.sharded.rounds, 0u);
  EXPECT_EQ(dist.mpc_rounds,
            3 * dist.luby_rounds + dist.search.sharded.rounds);
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

TEST(ShardedEndToEnd, OptionsCarriedClusterAloneSufficesForLuby) {
  // Lemma10Options::search carrying a backend + cluster alone selects
  // the sharded backend; the shared-memory Luby loop passes no explicit
  // cluster, so the policy's cluster must kick in (and the result must
  // still match a fully shared-memory run).
  Graph g = gen::gnp(120, 0.05, 41);
  derand::Lemma10Options opt;
  opt.seed_bits = 4;
  opt.strategy = derand::SeedStrategy::kExhaustive;
  baseline::MisResult shared = baseline::luby_mis_derandomized(g, opt, 4);

  mpc::Cluster cluster(cluster_config(3, 8192, g.num_nodes()));
  opt.search.backend = SearchBackend::kSharded;
  opt.search.cluster = &cluster;
  baseline::MisResult via_options = baseline::luby_mis_derandomized(g, opt, 4);

  EXPECT_EQ(via_options.in_mis, shared.in_mis);
  EXPECT_GT(via_options.search.sharded.rounds, 0u);
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

TEST(ShardedEndToEnd, LowDegreePhaseLoopMatchesAndAccountsRounds) {
  Graph g = gen::gnp(160, 0.03, 13);
  D1lcInstance inst = make_degree_plus_one(g);

  mpc::Cluster shared_cluster(cluster_config(5, 16384, g.num_nodes()));
  d1lc::MpcLowDegreeResult shared =
      d1lc::low_degree_color_mpc(shared_cluster, inst);

  mpc::Cluster cluster(cluster_config(5, 16384, g.num_nodes()));
  ExecutionPolicy pol;
  pol.backend = SearchBackend::kSharded;
  d1lc::MpcLowDegreeResult dist =
      d1lc::low_degree_color_mpc(cluster, inst, 6, 0xC0FFEE, pol);

  EXPECT_TRUE(dist.valid);
  EXPECT_EQ(dist.coloring, shared.coloring);
  EXPECT_EQ(dist.phases, shared.phases);
  EXPECT_GT(dist.search.sharded.rounds, 0u);
  EXPECT_EQ(dist.mpc_rounds, 2 * dist.phases + dist.search.sharded.rounds);
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

}  // namespace
}  // namespace pdc::engine::sharded
