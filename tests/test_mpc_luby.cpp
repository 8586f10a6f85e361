// Tests for the genuinely-distributed Luby MIS on the Cluster substrate
// and the bounded-independence bit source.
//
// The headline property: with the same deterministic coin sequence, the
// message-passing execution must produce *bit-identical* output to the
// shared-memory implementation — the substrate changes, the algorithm
// does not.

#include <gtest/gtest.h>

#include "pdc/baseline/luby.hpp"
#include "pdc/baseline/luby_mpc.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/hknt/procedures.hpp"
#include "pdc/prg/kwise_source.hpp"

namespace pdc {
namespace {

mpc::Config cluster_config(const Graph& g, std::uint32_t machines) {
  mpc::Config c;
  c.n = g.num_nodes();
  c.phi = 0.5;
  // Per-machine shard of the liveness/marked traffic: ~3 * 2m / p words
  // at worst in one exchange; generous headroom.
  c.local_space_words = std::max<std::uint64_t>(
      4096, 12 * g.num_edges() / machines + 4096);
  c.num_machines = machines;
  return c;
}

class MpcLubyEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(MpcLubyEquivalence, MatchesSharedMemoryBitForBit) {
  auto [seed, machines] = GetParam();
  Graph g = gen::gnp(400, 0.02, seed);
  baseline::MisResult shared = baseline::luby_mis(g, seed);

  mpc::Cluster cluster(cluster_config(g, static_cast<std::uint32_t>(machines)));
  baseline::MpcMisResult dist = baseline::luby_mis_mpc(cluster, g, seed);

  EXPECT_EQ(dist.in_mis, shared.in_mis);
  EXPECT_EQ(dist.luby_rounds, shared.rounds);
  // 3 cluster rounds per Luby round.
  EXPECT_EQ(dist.mpc_rounds, 3 * dist.luby_rounds);
  EXPECT_TRUE(cluster.ledger().violations().empty());
  auto [indep, maximal] = baseline::check_mis(g, dist.in_mis);
  EXPECT_TRUE(indep);
  EXPECT_TRUE(maximal);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndMachines, MpcLubyEquivalence,
    ::testing::Combine(::testing::Values(1ull, 7ull, 42ull),
                       ::testing::Values(2, 5, 16)));

class MpcDerandLubyEquivalence
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(MpcDerandLubyEquivalence, MatchesSharedMemoryBitForBit) {
  // The derandomized variant must also survive the substrate swap: the
  // engine's seed selection is deterministic (integer totals), so the
  // distributed execution replays the exact rounds of
  // luby_mis_derandomized and lands on the same MIS.
  auto [salt, machines] = GetParam();
  Graph g = gen::gnp(250, 0.03, salt);
  derand::Lemma10Options opt;
  opt.seed_bits = 4;
  opt.salt = salt;
  opt.strategy = derand::SeedStrategy::kPrefixWalk;

  baseline::MisResult shared = baseline::luby_mis_derandomized(g, opt, 8);
  mpc::Cluster cluster(
      cluster_config(g, static_cast<std::uint32_t>(machines)));
  baseline::MpcMisResult dist =
      baseline::luby_mis_mpc_derandomized(cluster, g, opt, 8);

  EXPECT_EQ(dist.in_mis, shared.in_mis);
  EXPECT_EQ(dist.luby_rounds, shared.rounds);
  EXPECT_EQ(dist.greedy_added, shared.greedy_added);
  EXPECT_TRUE(cluster.ledger().violations().empty());
  auto [indep, maximal] = baseline::check_mis(g, dist.in_mis);
  EXPECT_TRUE(indep);
  EXPECT_TRUE(maximal);
  // Engine accounting is threaded through: every round searched 2^4
  // seeds in batched sweeps.
  EXPECT_EQ(dist.search.evaluations, shared.search.evaluations);
  EXPECT_GE(dist.search.evaluations, 16u * dist.luby_rounds);
  EXPECT_LT(dist.search.sweeps, dist.search.evaluations);
}

INSTANTIATE_TEST_SUITE_P(
    SaltsAndMachines, MpcDerandLubyEquivalence,
    ::testing::Combine(::testing::Values(2ull, 19ull),
                       ::testing::Values(3, 8)));

TEST(MpcLuby, HandlesDegenerateGraphs) {
  // Edgeless graph: everyone joins in round 1.
  Graph g0 = Graph::from_edges(10, {});
  mpc::Cluster c0(cluster_config(g0, 3));
  auto r0 = baseline::luby_mis_mpc(c0, g0, 1);
  for (auto b : r0.in_mis) EXPECT_EQ(b, 1);
  // Complete graph: exactly one member, same as shared memory.
  Graph g1 = gen::complete(12);
  mpc::Cluster c1(cluster_config(g1, 4));
  auto r1 = baseline::luby_mis_mpc(c1, g1, 3);
  EXPECT_EQ(r1.in_mis, baseline::luby_mis(g1, 3).in_mis);
}

// ---- Bounded-independence source. ----

TEST(KWiseSource, DeterministicPerSeedAndNode) {
  prg::KWiseSource a(4, 99), b(4, 99);
  BitStream s1 = a.stream(5, 0), s2 = b.stream(5, 0);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(s1.bits(64), s2.bits(64));
  BitStream s3 = a.stream(6, 0);
  BitStream s4 = a.stream(5, 0);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (s3.bits(64) == s4.bits(64));
  EXPECT_LT(same, 2);
}

TEST(KWiseSource, PairwiseCollisionRateMatchesUniform) {
  // For k=2, the first draws of two fixed nodes collide in an m-bucket
  // reduction with probability ~1/m over the seed choice.
  const std::uint64_t m = 16;
  int collisions = 0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    prg::KWiseSource src(2, 1000 + t);
    BitStream a = src.stream(3, 0), b = src.stream(77, 0);
    if (a.below(m) == b.below(m)) ++collisions;
  }
  EXPECT_NEAR(static_cast<double>(collisions) / trials, 1.0 / m, 0.02);
}

TEST(KWiseSource, DrivesColoringProceduresWithoutBias) {
  // A TryRandomColor round under 8-wise independence should commit a
  // fraction comparable to full independence on a sparse instance.
  Graph g = gen::gnp(500, 0.02, 5);
  D1lcInstance inst =
      make_random_lists(g, static_cast<Color>(g.max_degree()) + 40, 15, 7);
  derand::ColoringState state(inst.graph, inst.palettes);
  hknt::HkntConfig cfg;
  hknt::TryRandomColorProc proc(cfg, hknt::TryRandomColorProc::Ssp::kNone,
                                "kwise");
  auto committed_under = [&](const prg::BitSourceFactory& src) {
    auto run = proc.simulate(state, src);
    std::uint64_t c = 0;
    for (auto x : run.proposed) c += (x != kNoColor);
    return c;
  };
  prg::KWiseSource kwise(8, 11);
  prg::TrueRandomSource full(11);
  double k8 = static_cast<double>(committed_under(kwise));
  double f = static_cast<double>(committed_under(full));
  EXPECT_NEAR(k8 / g.num_nodes(), f / g.num_nodes(), 0.08);
}

}  // namespace
}  // namespace pdc
