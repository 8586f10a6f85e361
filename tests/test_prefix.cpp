// Tests for the prefix oracle plane and the engine front door: the
// junta-fooling walk's routing (oracle-backed walks pay zero
// enumeration sweeps and tag PlaneTag::kPrefix), the differential
// guarantee — the oracle-backed walk must select bit-identical
// Selections to the same walk run over analytic and enumerating
// totals, on the shared-memory AND sharded backends at machine counts
// 1-17, for the production Lemma-23 and trial oracles — the property
// bounds on junta work (junta_evals <= items * bits * max-junta, and
// strictly below the analytic member loop when seed-constant items
// exist), and the engine::search() front door (route dispatch, kAuto
// backend resolution, stats sinks, legacy aliases).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "pdc/d1lc/low_degree_mpc.hpp"
#include "pdc/d1lc/partition.hpp"
#include "pdc/d1lc/partition_oracles.hpp"
#include "pdc/d1lc/trial_oracle.hpp"
#include "pdc/engine/prefix.hpp"
#include "pdc/engine/search.hpp"
#include "pdc/engine/sharded/sharded_search.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/util/hashing.hpp"

namespace pdc::engine {
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

void expect_same_selection(const Selection& a, const Selection& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.cost, b.cost);            // bit-identical, not just near
  EXPECT_EQ(a.mean_cost, b.mean_cost);  // (doubles compared with ==)
}

/// The oracle-backed walk's observable discipline: no enumeration
/// sweeps, no analytic blocks — the prefix plane served everything.
void expect_fully_prefix(const SearchStats& st, int bits) {
  EXPECT_EQ(st.sweeps, 0u);
  EXPECT_EQ(st.analytic.blocks, 0u);
  EXPECT_EQ(st.route, PlaneTag::kPrefix);
  EXPECT_EQ(st.prefix.walks, 1u);
  EXPECT_EQ(st.prefix.bit_steps, static_cast<std::uint64_t>(bits));
}

/// Synthetic prefix objective: item v contributes 1 under member s when
/// its hashed slot collides with a neighbor's; items with index < n/4
/// are declared seed-constant 0 (modeling last-bin / inactive items).
/// eval_analytic stays the ground truth for every path.
class PrefixCollisionOracle final : public PrefixOracle {
 public:
  PrefixCollisionOracle(const Graph& g, std::uint64_t slots, int bits)
      : g_(&g), slots_(slots), bits_(bits) {}
  std::size_t item_count() const override { return g_->num_nodes(); }
  int bit_count() const override { return bits_; }
  std::size_t junta_size(std::size_t item) const override {
    return constant_cost(item) ? 0 : 1 + g_->degree(static_cast<NodeId>(item));
  }
  std::optional<double> constant_cost(std::size_t item) const override {
    if (item < g_->num_nodes() / 4) return 0.0;
    return std::nullopt;
  }

  void eval_analytic(std::uint64_t first, std::size_t count,
                     std::size_t item, double* sink) const override {
    if (item < g_->num_nodes() / 4) return;  // matches constant_cost
    const NodeId v = static_cast<NodeId>(item);
    for (std::size_t j = 0; j < count; ++j) {
      const std::uint64_t mine = slot(first + j, v);
      for (NodeId u : g_->neighbors(v)) {
        if (slot(first + j, u) == mine) {
          sink[j] += 1.0;
          break;
        }
      }
    }
  }

 private:
  std::uint64_t slot(std::uint64_t seed, NodeId v) const {
    return mix64(hash_combine(seed, v)) % slots_;
  }
  const Graph* g_;
  std::uint64_t slots_;
  int bits_;
};

// ---- Engine routing. ----

TEST(PrefixEngine, OracleBackedWalkServesThePrefixPlane) {
  Graph g = gen::gnp(240, 0.04, 5);
  const int bits = 6;
  PrefixCollisionOracle oracle(g, 16, bits);
  SeedSearch search(oracle);  // use_prefix defaults to true
  Selection sel = search.prefix_walk(bits);
  expect_fully_prefix(sel.stats, bits);
  EXPECT_LE(sel.cost, sel.mean_cost);
  EXPECT_EQ(sel.stats.backend, BackendTag::kSharedMemory);
  // Constant items never evaluate; every active item pays its junta's
  // completions exactly once across the whole walk.
  const std::uint64_t active = g.num_nodes() - g.num_nodes() / 4;
  EXPECT_EQ(sel.stats.prefix.junta_evals, active * (1ull << bits));
}

TEST(PrefixEngine, WalkMatchesBothTotalsReferences) {
  Graph g = gen::gnp(200, 0.05, 9);
  const int bits = 7;
  PrefixCollisionOracle o1(g, 8, bits), o2(g, 8, bits), o3(g, 8, bits);

  Selection walk = SeedSearch(o1).prefix_walk(bits);

  SearchOptions no_prefix;
  no_prefix.use_prefix = false;
  Selection analytic_ref = SeedSearch(o2, no_prefix).prefix_walk(bits);
  EXPECT_EQ(analytic_ref.stats.route, PlaneTag::kAnalytic);
  EXPECT_EQ(analytic_ref.stats.sweeps, 0u);

  SearchOptions enumerating = no_prefix;
  enumerating.use_analytic = false;
  Selection enum_ref = SeedSearch(o3, enumerating).prefix_walk(bits);
  EXPECT_EQ(enum_ref.stats.route, PlaneTag::kEnumerating);
  EXPECT_GT(enum_ref.stats.sweeps, 0u);

  expect_same_selection(walk, analytic_ref);
  expect_same_selection(walk, enum_ref);
  EXPECT_LE(walk.cost, walk.mean_cost);
}

TEST(PrefixEngine, AllConstantObjectiveDoesZeroJuntaWork) {
  // Every item constant: the walk must answer purely from the
  // classification.
  class AllConstant final : public PrefixOracle {
   public:
    std::size_t item_count() const override { return 50; }
    int bit_count() const override { return 5; }
    std::size_t junta_size(std::size_t) const override { return 0; }
    std::optional<double> constant_cost(std::size_t item) const override {
      return item % 3 == 0 ? 2.0 : 1.0;
    }
    void eval_analytic(std::uint64_t, std::size_t count, std::size_t item,
                       double* sink) const override {
      for (std::size_t j = 0; j < count; ++j)
        sink[j] += item % 3 == 0 ? 2.0 : 1.0;
    }
  } oracle;
  Selection sel = SeedSearch(oracle).prefix_walk(5);
  EXPECT_EQ(sel.stats.prefix.junta_evals, 0u);
  EXPECT_EQ(sel.seed, 0u);  // flat landscape: ties resolve to branch 0
  EXPECT_DOUBLE_EQ(sel.cost, sel.mean_cost);
}

// ---- Differential: production oracles, both backends, oracle-backed
// vs analytic-totals vs enumerating-totals, machine counts 1-17. ----

struct PartitionFixture {
  Graph g;
  D1lcInstance inst;
  std::vector<NodeId> high;
  std::uint32_t nbins = 6;
  std::uint32_t color_bins = 5;
  std::uint32_t cap = 8;
  std::vector<std::uint32_t> bin_of;

  explicit PartitionFixture(std::uint64_t seed)
      : g(gen::gnp(260, 0.05, seed)), inst(make_degree_plus_one(g)) {
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (g.degree(v) > cap) high.push_back(v);
    EnumerablePairwiseFamily f1(77, 6);
    bin_of.assign(g.num_nodes(), d1lc::Partition::kMid);
    for (NodeId v : high)
      bin_of[v] = static_cast<std::uint32_t>(f1.eval(3, v, nbins));
  }
};

class PrefixDifferential : public ::testing::TestWithParam<int> {};

/// Runs the walk four ways over fresh instances of `make` and checks
/// bit-identical Selections: shared-memory oracle-backed, shared-memory
/// totals reference, sharded oracle-backed, sharded totals reference.
template <typename MakeOracle>
void check_prefix_differential(std::uint32_t p, int bits, std::size_t n,
                               const MakeOracle& make) {
  auto o_walk = make();
  Selection walk = SeedSearch(*o_walk).prefix_walk(bits);
  expect_fully_prefix(walk.stats, bits);

  SearchOptions no_prefix;
  no_prefix.use_prefix = false;
  auto o_ref = make();
  Selection ref = SeedSearch(*o_ref, no_prefix).prefix_walk(bits);
  expect_same_selection(walk, ref);

  mpc::Cluster cluster(cluster_config(p, 4096, n), /*strict=*/true);
  auto o_sh = make();
  sharded::ShardedSeedSearch sh(*o_sh, cluster);
  Selection sh_walk = sh.prefix_walk(bits);
  expect_same_selection(walk, sh_walk);
  expect_fully_prefix(sh_walk.stats, bits);
  EXPECT_GT(sh_walk.stats.sharded.rounds, 0u);
  // Junta work is shard-local, so the total matches shared memory.
  EXPECT_EQ(sh_walk.stats.prefix.junta_evals, walk.stats.prefix.junta_evals);

  sharded::ShardedOptions sopt;
  sopt.search.use_prefix = false;
  auto o_shref = make();
  sharded::ShardedSeedSearch shref(*o_shref, cluster, sopt);
  Selection sh_ref = shref.prefix_walk(bits);
  expect_same_selection(walk, sh_ref);
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

TEST_P(PrefixDifferential, H1DegreeOracleMatchesEverywhere) {
  const std::uint32_t p = static_cast<std::uint32_t>(GetParam());
  PartitionFixture fx(21);
  ASSERT_GT(fx.high.size(), 20u);
  EnumerablePairwiseFamily f1(101, 6);
  check_prefix_differential(p, 6, fx.g.num_nodes(), [&] {
    return std::make_unique<d1lc::H1DegreeOracle>(fx.g, fx.high, f1,
                                                  fx.nbins, fx.cap);
  });
}

TEST_P(PrefixDifferential, H2PaletteOracleMatchesEverywhere) {
  const std::uint32_t p = static_cast<std::uint32_t>(GetParam());
  PartitionFixture fx(33);
  ASSERT_GT(fx.high.size(), 20u);
  EnumerablePairwiseFamily f2(102, 6);
  check_prefix_differential(p, 6, fx.g.num_nodes(), [&] {
    return std::make_unique<d1lc::H2PaletteOracle>(
        fx.g, fx.inst, fx.high, fx.bin_of, f2, fx.nbins, fx.color_bins);
  });
}

TEST_P(PrefixDifferential, TrialOracleMatchesEverywhere) {
  const std::uint32_t p = static_cast<std::uint32_t>(GetParam());
  Graph g = gen::gnp(200, 0.04, 31);
  D1lcInstance inst = make_degree_plus_one(g);
  EnumerablePairwiseFamily family(55, 6);
  Coloring none(g.num_nodes(), kNoColor);
  std::vector<NodeId> items(g.num_nodes());
  std::iota(items.begin(), items.end(), NodeId{0});
  // A genuinely mixed active set so the trial oracle has seed-constant
  // items to skip.
  std::vector<std::uint8_t> active(g.num_nodes(), 1);
  for (NodeId v = 0; v < g.num_nodes(); v += 5) active[v] = 0;
  d1lc::AvailLists avail = d1lc::AvailLists::from_instance(inst, none);
  check_prefix_differential(p, 6, g.num_nodes(), [&] {
    return std::make_unique<d1lc::TrialOracle>(g, items, active, avail,
                                               family);
  });
}

INSTANTIATE_TEST_SUITE_P(MachineCounts, PrefixDifferential,
                         ::testing::Values(1, 4, 9, 17));

// ---- Property: junta work bounds on the family grid. ----

TEST(PrefixProperty, JuntaEvalsBoundedAndBelowTheAnalyticMemberLoop) {
  // The acceptance bound at family 2^7: the walk's junta work must stay
  // under items * bits * max-junta, and strictly under the analytic
  // member loop (items * members) for the same Lemma-23 search.
  PartitionFixture fx(47);
  ASSERT_GT(fx.high.size(), 30u);
  const int bits = 7;
  EnumerablePairwiseFamily f2(0xFACE, bits);
  const std::uint64_t items = fx.high.size();

  d1lc::H2PaletteOracle an(fx.g, fx.inst, fx.high, fx.bin_of, f2, fx.nbins,
                           fx.color_bins);
  SearchOptions no_prefix;
  no_prefix.use_prefix = false;
  Selection analytic = SeedSearch(an, no_prefix).exhaustive(f2.size());
  EXPECT_EQ(analytic.stats.analytic.formula_evals, items * f2.size());

  d1lc::H2PaletteOracle po(fx.g, fx.inst, fx.high, fx.bin_of, f2, fx.nbins,
                           fx.color_bins);
  Selection walk = SeedSearch(po).prefix_walk(bits);
  // Strictly below the member loop: the fixture's h1 assignment puts
  // high nodes in the last bin, and those items are seed-constant.
  EXPECT_LT(walk.stats.prefix.junta_evals,
            analytic.stats.analytic.formula_evals);

  // The contract ceiling, measured against the oracle's own junta
  // report (begin_walk caches max_junta; re-derive it here). The
  // default implementation pays exactly (items - constants) * members,
  // so the items * bits * max-junta ceiling only binds on instances
  // whose juntas are at least members/bits wide — assert that fixture
  // precondition explicitly so a sparser graph fails loudly here
  // rather than making the ceiling check pass (or fail) by accident.
  po.begin_walk(bits);
  const std::uint64_t max_junta = po.max_junta();
  const std::uint64_t constants = po.constant_items();
  EXPECT_GT(constants, 0u);
  po.end_walk();
  ASSERT_GE(max_junta * static_cast<std::uint64_t>(bits), f2.size())
      << "fixture too sparse for the ceiling property";
  EXPECT_EQ(walk.stats.prefix.junta_evals, (items - constants) * f2.size());
  EXPECT_LE(walk.stats.prefix.junta_evals,
            items * static_cast<std::uint64_t>(bits) * max_junta);
}

TEST(PrefixProperty, WalkGuaranteeHoldsAcrossSalts) {
  // cost <= mean on every instance: the conditional-expectations
  // argument, checked across several family salts.
  Graph g = gen::gnp(150, 0.06, 3);
  D1lcInstance inst = make_degree_plus_one(g);
  std::vector<NodeId> high;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (g.degree(v) > 6) high.push_back(v);
  for (std::uint64_t salt = 1; salt <= 8; ++salt) {
    EnumerablePairwiseFamily f1(salt, 6);
    d1lc::H1DegreeOracle oracle(g, high, f1, 5, 6);
    Selection sel = SeedSearch(oracle).prefix_walk(6);
    EXPECT_LE(sel.cost, sel.mean_cost) << "salt " << salt;
  }
}

// ---- The engine front door. ----

TEST(FrontDoor, RoutesMatchTheDirectEngines) {
  Graph g = gen::gnp(180, 0.05, 13);
  PrefixCollisionOracle a(g, 8, 6), b(g, 8, 6);
  expect_same_selection(search(a, SearchRequest::exhaustive(64)),
                        SeedSearch(b).exhaustive(64));
  expect_same_selection(search(a, SearchRequest::prefix_walk(6)),
                        SeedSearch(b).prefix_walk(6));
}

TEST(FrontDoor, StatsSinkAbsorbsEverySearch) {
  Graph g = gen::gnp(120, 0.05, 7);
  PrefixCollisionOracle oracle(g, 8, 6);
  SearchStats sink;
  ExecutionPolicy policy;
  policy.stats_sink = &sink;
  search(oracle, SearchRequest::exhaustive(32, policy));
  search(oracle, SearchRequest::prefix_walk(6, policy));
  EXPECT_EQ(sink.evaluations, 32u + 64u);
  EXPECT_EQ(sink.prefix.walks, 1u);
  EXPECT_EQ(sink.route, PlaneTag::kMixed);  // analytic + prefix
}

TEST(FrontDoor, AutoBackendAppliesTheCutover) {
  Graph g = gen::gnp(200, 0.05, 11);
  PrefixCollisionOracle oracle(g, 8, 6);
  mpc::Cluster cluster(cluster_config(4, 4096, g.num_nodes()),
                       /*strict=*/true);

  // No cluster: kAuto must fall back to shared memory.
  ExecutionPolicy none;
  none.backend = SearchBackend::kAuto;
  EXPECT_EQ(resolve_backend(none, g.num_nodes()),
            SearchBackend::kSharedMemory);

  // Default cutover (4096 items/machine): 200 items on 4 machines is
  // far below the floor — shared memory, decision recorded.
  ExecutionPolicy small;
  small.backend = SearchBackend::kAuto;
  small.cluster = &cluster;
  Selection sm = search(oracle, SearchRequest::exhaustive(64, small));
  EXPECT_EQ(sm.stats.backend, BackendTag::kSharedMemory);
  EXPECT_TRUE(sm.stats.backend_auto);
  EXPECT_EQ(sm.stats.sharded.rounds, 0u);

  // Lowered cutover: the same search crosses over to the cluster and
  // still selects the identical seed (the backend bit-identity).
  ExecutionPolicy crossed = small;
  crossed.auto_items_per_machine = 1;
  Selection sh = search(oracle, SearchRequest::exhaustive(64, crossed));
  EXPECT_EQ(sh.stats.backend, BackendTag::kSharded);
  EXPECT_TRUE(sh.stats.backend_auto);
  EXPECT_GT(sh.stats.sharded.rounds, 0u);
  expect_same_selection(sm, sh);
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

TEST(FrontDoor, ExplicitBackendsAreNotMarkedAuto) {
  Graph g = gen::gnp(100, 0.05, 17);
  PrefixCollisionOracle oracle(g, 8, 6);
  Selection sel = search(oracle, SearchRequest::exhaustive(32));
  EXPECT_EQ(sel.stats.backend, BackendTag::kSharedMemory);
  EXPECT_FALSE(sel.stats.backend_auto);
}

// ---- Call sites: ExecutionPolicy plumbing. ----

TEST(CallSites, PartitionPolicyRoutesTheSearchesToTheCluster) {
  Graph g = gen::gnp(300, 0.05, 17);
  D1lcInstance inst = make_degree_plus_one(g);
  d1lc::PartitionOptions base;
  base.mid_degree_cap = 10;
  base.family_log2 = 6;
  d1lc::Partition shared = d1lc::low_space_partition(inst, base, nullptr);

  mpc::Cluster c1(cluster_config(5, 8192, g.num_nodes()), /*strict=*/true);
  d1lc::PartitionOptions via_policy = base;
  via_policy.search.backend = SearchBackend::kSharded;
  via_policy.search.cluster = &c1;
  d1lc::Partition p1 = d1lc::low_space_partition(inst, via_policy, nullptr);

  EXPECT_EQ(p1.h1_index, shared.h1_index);
  EXPECT_EQ(p1.h2_index, shared.h2_index);
  EXPECT_GT(p1.search.sharded.rounds, 0u);
  EXPECT_EQ(p1.search.backend, BackendTag::kSharded);
}

TEST(CallSites, PartitionPrefixWalkMatchesItsTotalsReference) {
  Graph g = gen::gnp(400, 0.05, 23);
  D1lcInstance inst = make_degree_plus_one(g);
  d1lc::PartitionOptions opt;
  opt.mid_degree_cap = 10;
  opt.family_log2 = 7;
  opt.use_prefix_walk = true;
  d1lc::Partition walk = d1lc::low_space_partition(inst, opt, nullptr);
  EXPECT_EQ(walk.search.sweeps, 0u);
  EXPECT_EQ(walk.search.route, PlaneTag::kPrefix);
  EXPECT_EQ(walk.search.prefix.walks, 2u);  // h1 + h2

  d1lc::PartitionOptions ref = opt;
  ref.search.options.use_prefix = false;  // same walk over totals
  d1lc::Partition totals = d1lc::low_space_partition(inst, ref, nullptr);
  EXPECT_EQ(walk.h1_index, totals.h1_index);
  EXPECT_EQ(walk.h2_index, totals.h2_index);
  EXPECT_EQ(walk.bin_of, totals.bin_of);
  EXPECT_EQ(walk.degree_violations, totals.degree_violations);
  EXPECT_EQ(walk.palette_violations, totals.palette_violations);
}

TEST(CallSites, LowDegreeTrialPolicySelectsTheShardedBackend) {
  Graph g = gen::gnp(150, 0.04, 29);
  D1lcInstance inst = make_degree_plus_one(g);
  EnumerablePairwiseFamily family(55, 6);
  Coloring none(g.num_nodes(), kNoColor);
  Selection by_default =
      d1lc::low_degree_trial_selection(inst, none, family);
  mpc::Cluster cluster(cluster_config(3, 4096, g.num_nodes()),
                       /*strict=*/true);
  ExecutionPolicy pol;
  pol.backend = SearchBackend::kSharded;
  pol.cluster = &cluster;
  Selection by_policy =
      d1lc::low_degree_trial_selection(inst, none, family, pol);
  expect_same_selection(by_default, by_policy);
  EXPECT_EQ(by_policy.stats.backend, BackendTag::kSharded);
}

}  // namespace
}  // namespace pdc::engine
