// Tests for the derandomization framework: ColoringState semantics
// (deferral creates slack), Lemma-10 derandomization of a simple normal
// procedure, WSP verification, chunk-assignment modes, the sequence
// runner, and greedy completion.

#include <gtest/gtest.h>

#include "pdc/derand/coloring_state.hpp"
#include "pdc/derand/lemma10.hpp"
#include "pdc/derand/theorem12.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/hknt/procedures.hpp"

namespace pdc::derand {
namespace {

D1lcInstance triangle_instance() {
  Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  return make_degree_plus_one(g);
}

TEST(ColoringState, AvailableShrinksWithColoredNeighbors) {
  D1lcInstance inst = triangle_instance();
  ColoringState s(inst.graph, inst.palettes);
  EXPECT_EQ(s.available_count(0), 3u);
  EXPECT_EQ(s.slack(0), 1);  // 3 available - 2 uncolored neighbors
  s.set_color(1, 0);
  EXPECT_EQ(s.available_count(0), 2u);
  EXPECT_EQ(s.current_degree(0), 1u);
  EXPECT_EQ(s.slack(0), 1);
}

TEST(ColoringState, DeferralRemovesNeighborsWithoutBlockingColors) {
  D1lcInstance inst = triangle_instance();
  ColoringState s(inst.graph, inst.palettes);
  s.set_deferred(1);
  // Deferred neighbor: degree drops, palette untouched => slack grows.
  EXPECT_EQ(s.current_degree(0), 1u);
  EXPECT_EQ(s.available_count(0), 3u);
  EXPECT_EQ(s.slack(0), 2);
  EXPECT_FALSE(s.participates(1));
}

TEST(ColoringState, ParticipatingDegreeTracksActiveSet) {
  Graph g = gen::star(5);
  D1lcInstance inst = make_degree_plus_one(g);
  ColoringState s(inst.graph, inst.palettes);
  EXPECT_EQ(s.participating_degree(0), 4u);
  s.set_active(std::vector<NodeId>{0, 1});
  EXPECT_EQ(s.participating_degree(0), 1u);
  EXPECT_GT(s.participating_slack(0), s.slack(0));
}

TEST(ColoringState, SampleAvailableIsUniformish) {
  Graph g = gen::star(4);
  D1lcInstance inst = make_degree_plus_one(g);
  ColoringState s(inst.graph, inst.palettes);
  prg::TrueRandomSource src(3);
  std::map<Color, int> hist;
  for (int i = 0; i < 4000; ++i) {
    BitStream bs = src.stream(static_cast<std::uint32_t>(i), 0);
    ++hist[s.sample_available(0, bs)];
  }
  for (auto& [c, cnt] : hist)
    EXPECT_NEAR(cnt / 4000.0, 0.25, 0.05) << "color " << c;
}

TEST(ColoringState, SampleDistinctReturnsSortedSubset) {
  Graph g = gen::star(12);
  D1lcInstance inst = make_degree_plus_one(g);
  ColoringState s(inst.graph, inst.palettes);
  prg::TrueRandomSource src(5);
  BitStream bs = src.stream(0, 0);
  auto sample = s.sample_available_distinct(0, 5, bs);
  EXPECT_EQ(sample.size(), 5u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  EXPECT_TRUE(std::adjacent_find(sample.begin(), sample.end()) ==
              sample.end());
  for (Color c : sample) EXPECT_TRUE(inst.palettes.contains(0, c));
}

// ---- Lemma 10 on TryRandomColor over a slack-rich instance. ----

class Lemma10Strategy : public ::testing::TestWithParam<SeedStrategy> {};

TEST_P(Lemma10Strategy, TryRandomColorDerandomizesWithoutConflicts) {
  Graph g = gen::gnp(300, 0.02, 5);
  // Extra palette colors => linear slack => TryRandomColor succeeds a lot.
  D1lcInstance inst =
      make_random_lists(g, static_cast<Color>(g.max_degree()) + 60, 20, 7);
  ColoringState state(inst.graph, inst.palettes);

  hknt::HkntConfig cfg;
  hknt::TryRandomColorProc proc(
      cfg, hknt::TryRandomColorProc::Ssp::kSlackTwiceDegree, "test");

  Lemma10Options opt;
  opt.seed_bits = 6;
  opt.strategy = GetParam();
  Lemma10Report rep = derandomize_procedure(proc, state, opt, nullptr);

  EXPECT_EQ(rep.participants, 300u);
  EXPECT_EQ(rep.wsp_violations, 0u);
  // Committed colors are conflict-free and palette-respecting.
  auto check = check_coloring(inst, state.colors());
  EXPECT_EQ(check.monochromatic_edges, 0u);
  EXPECT_EQ(check.palette_violations, 0u);
  // With 20 extra colors, the vast majority succeed under any strategy.
  EXPECT_LT(rep.defer_fraction, 0.25);
  if (GetParam() != SeedStrategy::kTrueRandom &&
      GetParam() != SeedStrategy::kFirstSeed) {
    // Search strategies must achieve cost <= seed-space mean.
    EXPECT_LE(static_cast<double>(rep.ssp_failures), rep.mean_failures + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, Lemma10Strategy,
    ::testing::Values(SeedStrategy::kExhaustive, SeedStrategy::kPrefixWalk,
                      SeedStrategy::kFirstSeed, SeedStrategy::kTrueRandom));

TEST(Lemma10Estimator, EstimatorModeSimulatesOnlyTheCommitReplay) {
  Graph g = gen::gnp(300, 0.02, 5);
  D1lcInstance inst =
      make_random_lists(g, static_cast<Color>(g.max_degree()) + 60, 20, 7);
  hknt::HkntConfig cfg;
  hknt::TryRandomColorProc proc(
      cfg, hknt::TryRandomColorProc::Ssp::kSlackTwiceDegree, "est");

  for (SeedStrategy s :
       {SeedStrategy::kExhaustive, SeedStrategy::kPrefixWalk}) {
    ColoringState state(inst.graph, inst.palettes);
    Lemma10Options opt;
    opt.seed_bits = 6;
    opt.strategy = s;
    opt.use_estimator = EstimatorMode::kPrefer;
    Lemma10Report rep = derandomize_procedure(proc, state, opt, nullptr);

    EXPECT_TRUE(rep.estimator_used);
    // Zero search-phase simulations: no enumerating sweep ever ran —
    // the only simulate() is the commit replay. The guarantee binds
    // the estimator mean (domination + conditional expectations).
    EXPECT_EQ(rep.search.sweeps, 0u);
    EXPECT_LE(static_cast<double>(rep.ssp_failures),
              rep.estimator_mean + 1e-9);
    EXPECT_TRUE(rep.search.route == engine::PlaneTag::kAnalytic ||
                rep.search.route == engine::PlaneTag::kPrefix);
    EXPECT_EQ(rep.wsp_violations, 0u);
    auto check = check_coloring(inst, state.colors());
    EXPECT_EQ(check.monochromatic_edges, 0u);
    EXPECT_EQ(check.palette_violations, 0u);
  }
}

TEST(Lemma10, RandomizedModeDoesNotDefer) {
  Graph g = gen::gnp(200, 0.03, 9);
  D1lcInstance inst = make_degree_plus_one(g);
  ColoringState state(inst.graph, inst.palettes);
  hknt::HkntConfig cfg;
  hknt::TryRandomColorProc proc(cfg, hknt::TryRandomColorProc::Ssp::kNone,
                                "rand");
  Lemma10Options opt;
  opt.strategy = SeedStrategy::kTrueRandom;
  opt.defer_failures = false;
  Lemma10Report rep = derandomize_procedure(proc, state, opt, nullptr);
  EXPECT_EQ(rep.deferred_new, 0u);
  EXPECT_EQ(state.count_deferred(), 0u);
}

TEST(Lemma10, ChunkAssignmentRespectsDistance) {
  // Needs Δ^4 < n for the proper power coloring path (otherwise the
  // balls cover the graph and per-node chunks are used instead).
  Graph g = gen::near_regular(3000, 3, 3);
  Lemma10Options opt;
  ChunkAssignment ca = assign_chunks(g, 1, opt, nullptr);
  EXPECT_TRUE(ca.power_coloring);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : ball(g, v, 4)) {
      EXPECT_NE(ca.chunk_of[u], ca.chunk_of[v]);
    }
  }
}

TEST(Lemma10, ChunkBudgetFallsBackToUniqueChunks) {
  Graph g = gen::gnp(400, 0.05, 3);
  Lemma10Options opt;
  opt.chunk_work_budget = 10;  // force fallback
  ChunkAssignment ca = assign_chunks(g, 1, opt, nullptr);
  EXPECT_FALSE(ca.power_coloring);
  EXPECT_EQ(ca.num_chunks, g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) EXPECT_EQ(ca.chunk_of[v], v);
}

TEST(Lemma10, SharedChunkAblationModeIsWiredThrough) {
  Graph g = gen::gnp(100, 0.05, 3);
  Lemma10Options opt;
  opt.shared_chunk_count = 4;
  ChunkAssignment ca = assign_chunks(g, 1, opt, nullptr);
  EXPECT_EQ(ca.num_chunks, 4u);
  EXPECT_FALSE(ca.power_coloring);
}

TEST(Theorem12, SequenceDefersMonotonicallyAndCommitsProperly) {
  Graph g = gen::gnp(250, 0.03, 11);
  D1lcInstance inst =
      make_random_lists(g, static_cast<Color>(g.max_degree()) + 50, 15, 3);
  ColoringState state(inst.graph, inst.palettes);
  hknt::HkntConfig cfg;
  hknt::TryRandomColorProc p1(cfg, hknt::TryRandomColorProc::Ssp::kNone, "a");
  hknt::TryRandomColorProc p2(cfg, hknt::TryRandomColorProc::Ssp::kNone, "b");
  hknt::MultiTrialProc p3(cfg, 4, 1.0, /*final=*/true, "c");
  const NormalProcedure* seq[] = {&p1, &p2, &p3};
  Lemma10Options opt;
  opt.seed_bits = 5;
  SequenceReport rep = derandomize_sequence(seq, state, opt, nullptr);
  ASSERT_EQ(rep.steps.size(), 3u);
  EXPECT_EQ(rep.total_wsp_violations(), 0u);
  auto check = check_coloring(inst, state.colors());
  EXPECT_EQ(check.monochromatic_edges, 0u);
  EXPECT_EQ(check.palette_violations, 0u);
  // Most nodes got colored across three trials on a slack-rich instance.
  EXPECT_GT(state.num_nodes() - state.count_uncolored(),
            state.num_nodes() / 2);
}

TEST(Theorem12, GreedyCompleteAlwaysFinishesValidInstances) {
  Graph g = gen::gnp(300, 0.04, 13);
  D1lcInstance inst = make_degree_plus_one(g);
  ColoringState state(inst.graph, inst.palettes);
  // Defer a third of the nodes, color nothing else: greedy must finish.
  for (NodeId v = 0; v < g.num_nodes(); v += 3) state.set_deferred(v);
  std::uint64_t done = greedy_complete(state, nullptr);
  EXPECT_EQ(done, g.num_nodes());
  EXPECT_TRUE(check_coloring(inst, state.colors()).complete_proper());
}

TEST(Theorem12, DerandomizedRunsAreReproducible) {
  Graph g = gen::gnp(150, 0.04, 17);
  D1lcInstance inst =
      make_random_lists(g, static_cast<Color>(g.max_degree()) + 30, 10, 5);
  auto run = [&]() {
    ColoringState state(inst.graph, inst.palettes);
    hknt::HkntConfig cfg;
    hknt::TryRandomColorProc proc(cfg, hknt::TryRandomColorProc::Ssp::kNone,
                                  "det");
    Lemma10Options opt;
    opt.seed_bits = 6;
    derandomize_procedure(proc, state, opt, nullptr);
    return state.colors();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace pdc::derand
