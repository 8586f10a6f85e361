// Tests for the analytic oracle plane: engine routing (closed forms
// consulted before enumerating sweeps, zero enumeration sweeps on the
// analytic path, enumerating fallback when disabled), the differential
// guarantee — analytic and enumerating paths must return bit-identical
// Selections on both backends at machine counts 1–17 for the production
// Lemma-23 and low-degree-trial oracles — the cluster-aware partition /
// low-degree call sites, and the property tests grounding the closed
// forms: the deterministic family grid's empirical bucket / collision
// frequencies must match the idealized pairwise-independent
// expectations within sampling tolerance.

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "pdc/d1lc/low_degree.hpp"
#include "pdc/d1lc/low_degree_mpc.hpp"
#include "pdc/d1lc/partition.hpp"
#include "pdc/d1lc/partition_oracles.hpp"
#include "pdc/d1lc/solver.hpp"
#include "pdc/d1lc/trial_oracle.hpp"
#include "pdc/engine/analytic.hpp"
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
  EXPECT_EQ(a.stats.evaluations, b.stats.evaluations);
}

/// The analytic path must never enumerate: that is the observable
/// "zero enumeration sweeps" claim (also gated in CI by
/// bench_e5_partition).
void expect_fully_analytic(const SearchStats& st) {
  EXPECT_EQ(st.sweeps, 0u);
  EXPECT_GT(st.analytic.searches, 0u);
  EXPECT_GT(st.analytic.blocks, 0u);
  EXPECT_GT(st.analytic.formula_evals, 0u);
}

/// Synthetic analytic objective: node v contributes 1 under member s
/// when its hashed slot collides with a neighbor's. eval_analytic and
/// the inherited enumerating fallback evaluate the same formula, so
/// the two paths must agree bit for bit.
class AnalyticCollisionOracle final : public AnalyticOracle {
 public:
  AnalyticCollisionOracle(const Graph& g, std::uint64_t slots)
      : g_(&g), slots_(slots) {}
  std::size_t item_count() const override { return g_->num_nodes(); }

  void eval_analytic(std::uint64_t first, std::size_t count,
                     std::size_t item, double* sink) const override {
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
};

// ---- Engine routing. ----

TEST(AnalyticEngine, AnalyticPathHasZeroEnumerationSweeps) {
  Graph g = gen::gnp(240, 0.04, 5);
  AnalyticCollisionOracle oracle(g, 16);
  SeedSearch search(oracle);  // use_analytic defaults to true
  Selection sel = search.exhaustive(96);
  expect_fully_analytic(sel.stats);
  EXPECT_EQ(sel.stats.evaluations, 96u);
  EXPECT_EQ(sel.stats.analytic.formula_evals, 96u * g.num_nodes());
  EXPECT_LE(sel.cost, sel.mean_cost);
}

TEST(AnalyticEngine, DisablingAnalyticFallsBackToEnumeratingSweeps) {
  Graph g = gen::gnp(200, 0.04, 9);
  AnalyticCollisionOracle analytic_oracle(g, 16), enum_oracle(g, 16);
  SeedSearch analytic(analytic_oracle);
  SearchOptions off;
  off.use_analytic = false;
  SeedSearch enumerating(enum_oracle, off);

  Selection a = analytic.exhaustive(64);
  Selection b = enumerating.exhaustive(64);
  expect_same_selection(a, b);
  expect_fully_analytic(a.stats);
  EXPECT_GT(b.stats.sweeps, 0u);
  EXPECT_EQ(b.stats.analytic.searches, 0u);
  EXPECT_EQ(b.stats.analytic.formula_evals, 0u);
}

TEST(AnalyticEngine, AllRoutesAgreeAcrossPathsAndRespectBlocks) {
  Graph g = gen::gnp(180, 0.05, 13);
  AnalyticCollisionOracle a_oracle(g, 8), e_oracle(g, 8);
  SearchOptions small;
  small.max_batch = 16;
  SearchOptions small_off = small;
  small_off.use_analytic = false;
  SeedSearch analytic(a_oracle, small);
  SeedSearch enumerating(e_oracle, small_off);

  expect_same_selection(analytic.exhaustive(64), enumerating.exhaustive(64));
  expect_same_selection(analytic.prefix_walk(6), enumerating.prefix_walk(6));
  // Analytic blocks respect max_batch: 64 members in 4 blocks of 16.
  Selection sel = analytic.exhaustive(64);
  EXPECT_EQ(sel.stats.analytic.blocks, 4u);
  EXPECT_EQ(sel.stats.batch, 16u);
  EXPECT_EQ(sel.stats.sweeps, 0u);
}

// ---- Differential: production Lemma-23 oracles, both backends,
// analytic on/off, machine counts 1-17. ----

struct PartitionFixture {
  Graph g;
  D1lcInstance inst;
  std::vector<NodeId> high;
  std::uint32_t nbins = 6;
  std::uint32_t color_bins = 5;
  std::uint32_t cap = 8;
  std::vector<std::uint32_t> bin_of;

  explicit PartitionFixture(std::uint64_t seed)
      : g(gen::gnp(260, 0.05, seed)),
        inst(make_degree_plus_one(g)) {
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      if (g.degree(v) > cap) high.push_back(v);
    // A fixed h1 assignment so the H2 objective is well-defined.
    EnumerablePairwiseFamily f1(77, 6);
    bin_of.assign(g.num_nodes(), d1lc::Partition::kMid);
    for (NodeId v : high)
      bin_of[v] = static_cast<std::uint32_t>(f1.eval(3, v, nbins));
  }
};

class AnalyticDifferential : public ::testing::TestWithParam<int> {};

TEST_P(AnalyticDifferential, PartitionOraclesMatchEverywhere) {
  const std::uint32_t p = static_cast<std::uint32_t>(GetParam());
  PartitionFixture fx(21);
  ASSERT_GT(fx.high.size(), 20u);
  EnumerablePairwiseFamily f1(101, 6), f2(102, 6);

  d1lc::H1DegreeOracle h1_ref(fx.g, fx.high, f1, fx.nbins, fx.cap);
  SearchOptions off;
  off.use_analytic = false;
  Selection ref1 = SeedSearch(h1_ref, off).exhaustive(f1.size());
  EXPECT_GT(ref1.stats.sweeps, 0u);  // the enumerating reference

  d1lc::H2PaletteOracle h2_ref(fx.g, fx.inst, fx.high, fx.bin_of, f2,
                               fx.nbins, fx.color_bins);
  Selection ref2 = SeedSearch(h2_ref, off).exhaustive(f2.size());

  // Shared-memory analytic.
  d1lc::H1DegreeOracle h1_an(fx.g, fx.high, f1, fx.nbins, fx.cap);
  Selection an1 = SeedSearch(h1_an).exhaustive(f1.size());
  expect_same_selection(ref1, an1);
  expect_fully_analytic(an1.stats);

  d1lc::H2PaletteOracle h2_an(fx.g, fx.inst, fx.high, fx.bin_of, f2,
                              fx.nbins, fx.color_bins);
  Selection an2 = SeedSearch(h2_an).exhaustive(f2.size());
  expect_same_selection(ref2, an2);
  expect_fully_analytic(an2.stats);

  // Sharded analytic: each machine evaluates its shard's closed forms,
  // converge-casting the same fixed-point partials.
  mpc::Cluster cluster(cluster_config(p, 4096, fx.g.num_nodes()),
                       /*strict=*/true);
  d1lc::H1DegreeOracle h1_sh(fx.g, fx.high, f1, fx.nbins, fx.cap);
  sharded::ShardedSeedSearch s1(h1_sh, cluster);
  Selection sh1 = s1.exhaustive(f1.size());
  expect_same_selection(ref1, sh1);
  expect_fully_analytic(sh1.stats);
  EXPECT_GT(sh1.stats.sharded.rounds, 0u);

  d1lc::H2PaletteOracle h2_sh(fx.g, fx.inst, fx.high, fx.bin_of, f2,
                              fx.nbins, fx.color_bins);
  sharded::ShardedSeedSearch s2(h2_sh, cluster);
  Selection sh2 = s2.exhaustive(f2.size());
  expect_same_selection(ref2, sh2);
  expect_fully_analytic(sh2.stats);
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

TEST_P(AnalyticDifferential, LowDegreeTrialMatchesEverywhere) {
  const std::uint32_t p = static_cast<std::uint32_t>(GetParam());
  Graph g = gen::gnp(200, 0.04, 31);
  D1lcInstance inst = make_degree_plus_one(g);
  EnumerablePairwiseFamily family(55, 6);
  Coloring none(g.num_nodes(), kNoColor);
  std::vector<NodeId> items(g.num_nodes());
  std::iota(items.begin(), items.end(), NodeId{0});
  std::vector<std::uint8_t> active(g.num_nodes(), 1);
  d1lc::AvailLists avail = d1lc::AvailLists::from_instance(inst, none);

  d1lc::TrialOracle ref_oracle(g, items, active, avail, family);
  SearchOptions off;
  off.use_analytic = false;
  Selection ref = SeedSearch(ref_oracle, off).exhaustive(family.size());
  EXPECT_GT(ref.stats.sweeps, 0u);

  d1lc::TrialOracle an_oracle(g, items, active, avail, family);
  Selection an = SeedSearch(an_oracle).exhaustive(family.size());
  expect_same_selection(ref, an);
  expect_fully_analytic(an.stats);

  mpc::Cluster cluster(cluster_config(p, 4096, g.num_nodes()),
                       /*strict=*/true);
  ExecutionPolicy pol;
  pol.backend = SearchBackend::kSharded;
  pol.cluster = &cluster;
  Selection dist =
      d1lc::low_degree_trial_selection(inst, none, family, pol);
  expect_same_selection(ref, dist);
  expect_fully_analytic(dist.stats);
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

INSTANTIATE_TEST_SUITE_P(MachineCounts, AnalyticDifferential,
                         ::testing::Values(1, 3, 8, 17));

// ---- Cluster-aware call sites. ----

TEST(AnalyticCallSites, ShardedPartitionMatchesSharedMemory) {
  Graph g = gen::gnp(400, 0.05, 17);
  D1lcInstance inst = make_degree_plus_one(g);
  d1lc::PartitionOptions opt;
  opt.mid_degree_cap = 10;
  opt.family_log2 = 6;

  d1lc::Partition shared = d1lc::low_space_partition(inst, opt, nullptr);
  expect_fully_analytic(shared.search);
  EXPECT_EQ(shared.search.analytic.searches, 2u);  // h1 + h2

  for (std::uint32_t p : {1u, 5u, 17u}) {
    mpc::Cluster cluster(cluster_config(p, 8192, g.num_nodes()),
                         /*strict=*/true);
    d1lc::PartitionOptions sopt = opt;
    sopt.search.backend = SearchBackend::kSharded;
    sopt.search.cluster = &cluster;
    d1lc::Partition dist = d1lc::low_space_partition(inst, sopt, nullptr);

    EXPECT_EQ(dist.h1_index, shared.h1_index) << "p=" << p;
    EXPECT_EQ(dist.h2_index, shared.h2_index) << "p=" << p;
    EXPECT_EQ(dist.bin_of, shared.bin_of);
    EXPECT_EQ(dist.degree_violations, shared.degree_violations);
    EXPECT_EQ(dist.palette_violations, shared.palette_violations);
    expect_fully_analytic(dist.search);
    EXPECT_GT(dist.search.sharded.rounds, 0u);
    EXPECT_EQ(cluster.ledger().rounds(), dist.search.sharded.rounds);
    EXPECT_TRUE(cluster.ledger().violations().empty());
  }
}

TEST(AnalyticCallSites, ShardedLowDegreeSolverMatchesSharedMemory) {
  Graph g = gen::gnp(150, 0.04, 23);
  D1lcInstance inst = make_degree_plus_one(g);

  derand::ColoringState shared_state(inst.graph, inst.palettes);
  d1lc::LowDegreeReport shared =
      d1lc::low_degree_color(shared_state, nullptr, 6, 0xFEED);
  expect_fully_analytic(shared.search);

  mpc::Cluster cluster(cluster_config(4, 8192, g.num_nodes()),
                       /*strict=*/true);
  derand::ColoringState dist_state(inst.graph, inst.palettes);
  ExecutionPolicy pol;
  pol.backend = SearchBackend::kSharded;
  pol.cluster = &cluster;
  d1lc::LowDegreeReport dist =
      d1lc::low_degree_color(dist_state, nullptr, 6, 0xFEED, pol);

  EXPECT_EQ(dist_state.colors(), shared_state.colors());
  EXPECT_EQ(dist.phases, shared.phases);
  EXPECT_EQ(dist.colored, shared.colored);
  expect_fully_analytic(dist.search);
  EXPECT_GT(dist.search.sharded.rounds, 0u);
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

TEST(AnalyticCallSites, SolverCarriesTheClusterThroughEveryPartitionLevel) {
  // End-to-end: the full deterministic solver with the partition /
  // low-degree searches on the sharded backend must reproduce the
  // shared-memory coloring exactly (the Lemma-10 searches stay
  // shared-memory here; their backend is chosen via l10).
  Graph g = gen::core_periphery(400, 80, 0.01, 0.5, 19);
  D1lcInstance inst = make_degree_plus_one(g);
  d1lc::SolverOptions opt;
  opt.phi = 0.5;
  opt.space_headroom = 2.0;
  opt.l10.seed_bits = 4;

  d1lc::SolveResult shared = d1lc::solve_d1lc(inst, opt);
  ASSERT_TRUE(shared.valid);

  mpc::Cluster cluster(cluster_config(6, 1 << 16, g.num_nodes()));
  d1lc::SolverOptions sopt = opt;
  sopt.search.backend = SearchBackend::kSharded;
  sopt.search.cluster = &cluster;
  d1lc::SolveResult dist = d1lc::solve_d1lc(inst, sopt);

  EXPECT_TRUE(dist.valid);
  EXPECT_EQ(dist.coloring, shared.coloring);
  EXPECT_EQ(dist.partition_levels, shared.partition_levels);
  EXPECT_GT(dist.seed_search.sharded.rounds, 0u);
  EXPECT_TRUE(cluster.ledger().violations().empty());
}

// ---- The fallback smoke: analytic-capable oracles must never
// enumerate on the default configuration. ----

TEST(AnalyticFallbackSmoke, ProductionSearchesNeverEnumerate) {
  Graph g = gen::gnp(300, 0.05, 29);
  D1lcInstance inst = make_degree_plus_one(g);

  d1lc::PartitionOptions popt;
  popt.mid_degree_cap = 10;
  d1lc::Partition part = d1lc::low_space_partition(inst, popt, nullptr);
  EXPECT_EQ(part.search.sweeps, 0u)
      << "partition hash search fell back to enumeration";
  EXPECT_EQ(part.search.analytic.searches, 2u);

  derand::ColoringState state(inst.graph, inst.palettes);
  d1lc::LowDegreeReport ld = d1lc::low_degree_color(state, nullptr, 6);
  EXPECT_EQ(ld.search.sweeps, 0u)
      << "low-degree trial search fell back to enumeration";
  EXPECT_EQ(ld.search.analytic.searches, ld.phases);
}

// ---- Property tests: the grid's empirical frequencies vs the
// idealized pairwise-independent closed forms. ----

TEST(AnalyticExpectations, BucketCountsPartitionTheField) {
  for (std::uint64_t m : {1ull, 2ull, 3ull, 7ull, 64ull, 1000ull,
                          (1ull << 40) + 17}) {
    unsigned __int128 total = 0;
    // Spot the first/last few buckets exactly, and the full sum for
    // small m.
    if (m <= 1000) {
      for (std::uint64_t bkt = 0; bkt < m; ++bkt)
        total += EnumerablePairwiseFamily::bucket_count(bkt, m);
      EXPECT_EQ(static_cast<std::uint64_t>(total), MersenneField::kPrime)
          << "m=" << m;
    }
    // Every bucket's width is within 1 of the ideal 2^61 / m.
    const std::uint64_t ideal = (1ull << 61) / m;
    for (std::uint64_t bkt : {std::uint64_t{0}, m / 2, m - 1}) {
      const std::uint64_t w = EnumerablePairwiseFamily::bucket_count(bkt, m);
      EXPECT_GE(w + 1, ideal) << "m=" << m << " bucket=" << bkt;
      EXPECT_LE(w, ideal + 1) << "m=" << m << " bucket=" << bkt;
    }
  }
}

TEST(AnalyticExpectations, GridBucketFrequenciesMatchClosedForm) {
  // Empirical Pr[h(x) == B] over the deterministic 2^12-member grid vs
  // the idealized bucket_probability. The grid is a pseudorandom sample
  // of the idealized family: with N = 4096 and per-bucket probability
  // ~1/m, sampling noise is ~sqrt(p(1-p)/N) ~ 0.005; tolerance 0.03 is
  // ~6 sigma and still catches any systematic bias.
  const std::uint64_t m = 8;
  EnumerablePairwiseFamily family(0xA11CE, 12);
  for (std::uint64_t x : {1ull, 12345ull, 0xDEADBEEFull}) {
    std::vector<std::uint64_t> freq(m, 0);
    for (std::uint64_t i = 0; i < family.size(); ++i)
      ++freq[family.eval(i, x, m)];
    for (std::uint64_t bkt = 0; bkt < m; ++bkt) {
      const double emp =
          static_cast<double>(freq[bkt]) / static_cast<double>(family.size());
      const double ana = EnumerablePairwiseFamily::bucket_probability(bkt, m);
      EXPECT_NEAR(emp, ana, 0.03) << "x=" << x << " bucket=" << bkt;
    }
  }
}

TEST(AnalyticExpectations, GridCollisionFrequenciesMatchClosedForm) {
  // Empirical Pr[h(x) and h(y) share a bucket] over the grid vs the
  // exact sum_B (count_B / p)^2. Collision probability ~1/m, same
  // sampling-noise argument as above.
  EnumerablePairwiseFamily family(0xB0B, 12);
  for (std::uint64_t m : {2ull, 5ull, 16ull}) {
    const double ana = EnumerablePairwiseFamily::collision_probability(m);
    EXPECT_NEAR(ana, 1.0 / static_cast<double>(m),
                0.5 / static_cast<double>(m));
    for (auto [x, y] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
             {3, 1031}, {77, 12345678}, {500, 501}}) {
      std::uint64_t hits = 0;
      for (std::uint64_t i = 0; i < family.size(); ++i)
        hits += (family.eval(i, x, m) == family.eval(i, y, m));
      const double emp =
          static_cast<double>(hits) / static_cast<double>(family.size());
      EXPECT_NEAR(emp, ana, 0.04) << "m=" << m << " x=" << x << " y=" << y;
    }
  }
}

}  // namespace
}  // namespace pdc::engine
