// Tests for the decomposable seed-search engine: oracle decomposition
// (batched == scalar totals), the cost <= mean guarantee on both search
// routes, sweep accounting (batched sweeps << legacy one-per-eval), and
// the degenerate-input contracts.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "pdc/engine/seed_search.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/graph/graph.hpp"
#include "pdc/util/rng.hpp"

namespace pdc::engine {
namespace {

/// Synthetic decomposed objective over a real graph: node v's
/// contribution under `seed` is 1 when its hashed slot collides with a
/// neighbor's (an abstract "trial failure"). Integer-valued, so totals
/// are exact and order-independent.
class CollisionOracle : public CostOracle {
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

 protected:
  std::uint64_t slot(std::uint64_t seed, NodeId v) const {
    return mix64(hash_combine(seed, v)) % slots_;
  }

  const Graph* g_;
  std::uint64_t slots_;
};

/// Same objective with an explicit batch hook (amortizes the neighbor
/// scan across the block, like the production oracles do).
class BatchedCollisionOracle final : public CollisionOracle {
 public:
  using CollisionOracle::CollisionOracle;

  void eval_batch(std::span<const std::uint64_t> seeds, std::size_t item,
                  double* sink) const override {
    const NodeId v = static_cast<NodeId>(item);
    std::vector<std::uint64_t> mine(seeds.size());
    for (std::size_t k = 0; k < seeds.size(); ++k)
      mine[k] = slot(seeds[k], v);
    std::vector<std::uint8_t> hit(seeds.size(), 0);
    for (NodeId u : g_->neighbors(v)) {
      for (std::size_t k = 0; k < seeds.size(); ++k) {
        if (!hit[k] && slot(seeds[k], u) == mine[k]) hit[k] = 1;
      }
    }
    for (std::size_t k = 0; k < seeds.size(); ++k)
      if (hit[k]) sink[k] += 1.0;
  }
};

double brute_force_total(const CostOracle& oracle, std::uint64_t seed) {
  double t = 0.0;
  for (std::size_t i = 0; i < oracle.item_count(); ++i)
    t += oracle.cost(seed, i);
  return t;
}

TEST(SeedSearchEngine, BatchedAndScalarTotalsAgreeOnRandomGraphs) {
  for (std::uint64_t gseed : {3ull, 17ull, 99ull}) {
    Graph g = gen::gnp(300, 0.03, gseed);
    CollisionOracle scalar(g, 32);
    BatchedCollisionOracle batched(g, 32);
    SeedSearch s1(scalar), s2(batched);
    Selection a = s1.exhaustive(64);
    Selection b = s2.exhaustive(64);
    EXPECT_EQ(a.seed, b.seed) << "graph seed " << gseed;
    EXPECT_DOUBLE_EQ(a.cost, b.cost);
    EXPECT_DOUBLE_EQ(a.mean_cost, b.mean_cost);
    // Spot-check against a fully independent enumeration.
    EXPECT_DOUBLE_EQ(a.cost, brute_force_total(scalar, a.seed));
  }
}

TEST(SeedSearchEngine, AllRoutesSatisfyCostLeqMean) {
  Graph g = gen::gnp(200, 0.05, 7);
  BatchedCollisionOracle oracle(g, 16);
  SeedSearch search(oracle);
  Selection ex = search.exhaustive(1ULL << 8);
  EXPECT_LE(ex.cost, ex.mean_cost);
  Selection pw = search.prefix_walk(8);
  EXPECT_LE(pw.cost, pw.mean_cost);
  // Both routes searched the same space, so the means coincide and the
  // exhaustive argmin lower-bounds the walk's endpoint.
  EXPECT_DOUBLE_EQ(ex.mean_cost, pw.mean_cost);
  EXPECT_LE(ex.cost, pw.cost);
}

TEST(SeedSearchEngine, StrategiesPickIdenticalSeedOnSeparableObjective) {
  // Separable per-bit penalties: the prefix walk must
  // land on the exhaustive argmin.
  class SeparableOracle final : public CostOracle {
   public:
    std::size_t item_count() const override { return 8; }
    double cost(std::uint64_t seed, std::size_t item) const override {
      bool bit = (seed >> item) & 1;
      return bit == (item % 2 == 0) ? 0.0 : 1.0;
    }
  };
  SeparableOracle oracle;
  SeedSearch search(oracle);
  Selection ex = search.exhaustive(1ULL << 8);
  Selection pw = search.prefix_walk(8);
  EXPECT_EQ(ex.seed, pw.seed);
  EXPECT_DOUBLE_EQ(ex.cost, 0.0);
  EXPECT_DOUBLE_EQ(pw.cost, 0.0);
}

TEST(SeedSearchEngine, SweepAccountingBeatsOnePassPerEvaluation) {
  Graph g = gen::gnp(100, 0.05, 13);
  BatchedCollisionOracle oracle(g, 16);
  SearchOptions opt;
  opt.max_batch = 64;
  SeedSearch search(oracle, opt);
  Selection ex = search.exhaustive(256);
  EXPECT_EQ(ex.stats.evaluations, 256u);
  EXPECT_EQ(ex.stats.sweeps, 4u);  // ceil(256 / 64)
  // No prefix plane: the walk runs over one totals pass, no re-evals.
  Selection pw = search.prefix_walk(8);
  EXPECT_EQ(pw.stats.evaluations, 256u);
  EXPECT_EQ(pw.stats.sweeps, 4u);
}

TEST(SeedSearchEngine, PrefixWalkBreaksTiesTowardSeedZero) {
  // Identically-zero objective: every branch ties, so the walk keeps
  // bit 0 at each step and returns seed 0 with exact mean 0.
  class ZeroOracle final : public CostOracle {
   public:
    std::size_t item_count() const override { return 10; }
    double cost(std::uint64_t, std::size_t) const override { return 0.0; }
  };
  ZeroOracle oracle;
  SeedSearch search(oracle);
  Selection pw = search.prefix_walk(10);
  EXPECT_EQ(pw.seed, 0u);
  EXPECT_DOUBLE_EQ(pw.cost, 0.0);
  EXPECT_DOUBLE_EQ(pw.mean_cost, 0.0);
}

TEST(SeedSearchEngine, ScalarOracleMatchesLegacyContract) {
  // Opaque objective with a known minimum; the engine parallelizes
  // over seeds and must still return exact accounting.
  ScalarOracle oracle([](std::uint64_t seed) {
    if (seed == 37) return 0.0;
    return 1.0 + static_cast<double>(mix64(seed) % 1000) / 1000.0;
  });
  SeedSearch search(oracle);
  Selection ex = search.exhaustive(1ULL << 8);
  EXPECT_EQ(ex.seed, 37u);
  EXPECT_DOUBLE_EQ(ex.cost, 0.0);
  EXPECT_EQ(ex.stats.evaluations, 256u);
  EXPECT_GE(ex.mean_cost, ex.cost);
}

TEST(SeedSearchEngine, EvaluateSeedSumsAllItems) {
  Graph g = gen::gnp(150, 0.04, 21);
  BatchedCollisionOracle oracle(g, 8);
  SearchStats stats;
  double total = evaluate_seed(oracle, 5, &stats);
  EXPECT_DOUBLE_EQ(total, brute_force_total(oracle, 5));
  EXPECT_EQ(stats.evaluations, 1u);
  EXPECT_EQ(stats.sweeps, 1u);
}

TEST(SeedSearchEngine, AdaptiveBatchTracksItemCountWithinCacheBudget) {
  SearchOptions adaptive;  // max_batch == 0: derive from the oracle
  // Floor of 128 for small item sets (little setup to amortize).
  EXPECT_EQ(resolve_max_batch(adaptive, 1), 128u);
  EXPECT_EQ(resolve_max_batch(adaptive, 500), 128u);
  // An eighth of the item count (rounded to a power of two) past it...
  EXPECT_EQ(resolve_max_batch(adaptive, 8192), 1024u);
  EXPECT_EQ(resolve_max_batch(adaptive, 16384), 2048u);
  // ...capped at a 4096-double (32 KiB) sink.
  EXPECT_EQ(resolve_max_batch(adaptive, 1 << 20), 4096u);
  // Explicit values pass through untouched.
  SearchOptions manual;
  manual.max_batch = 77;
  EXPECT_EQ(resolve_max_batch(manual, 1 << 20), 77u);
}

TEST(SeedSearchEngine, StatsRecordTheChosenBatch) {
  Graph g = gen::gnp(120, 0.05, 29);
  BatchedCollisionOracle oracle(g, 16);
  // Adaptive: 120 items resolve to the 128 floor; 200 seeds split into
  // blocks of 128 + 72, and stats report the widest block used.
  SeedSearch auto_search(oracle);
  Selection a = auto_search.exhaustive(200);
  EXPECT_EQ(a.stats.batch, 128u);
  EXPECT_EQ(a.stats.sweeps, 2u);
  // Explicit max_batch is honored verbatim.
  SearchOptions opt;
  opt.max_batch = 64;
  SeedSearch manual(oracle, opt);
  Selection b = manual.exhaustive(200);
  EXPECT_EQ(b.stats.batch, 64u);
  EXPECT_EQ(b.stats.sweeps, 4u);  // ceil(200 / 64)
}

TEST(SeedSearchEngine, SingleSeedSpacesAreWellDefined) {
  // family_size == 1 and seed_bits == 1: exact means, no over-counted
  // evaluations (the legacy shims' regression cases).
  class ConstOracle final : public CostOracle {
   public:
    std::size_t item_count() const override { return 4; }
    double cost(std::uint64_t seed, std::size_t) const override {
      return seed == 0 ? 2.0 : 1.0;
    }
  };
  ConstOracle oracle;
  SeedSearch search(oracle);
  Selection one = search.exhaustive(1);
  EXPECT_EQ(one.seed, 0u);
  EXPECT_DOUBLE_EQ(one.cost, 8.0);
  EXPECT_DOUBLE_EQ(one.mean_cost, 8.0);
  EXPECT_EQ(one.stats.evaluations, 1u);

  Selection bit = search.prefix_walk(1);
  EXPECT_EQ(bit.seed, 1u);  // branch 1 mean 4 < branch 0 mean 8
  EXPECT_DOUBLE_EQ(bit.cost, 4.0);
  EXPECT_DOUBLE_EQ(bit.mean_cost, 6.0);
  EXPECT_EQ(bit.stats.evaluations, 2u);
}

}  // namespace
}  // namespace pdc::engine
