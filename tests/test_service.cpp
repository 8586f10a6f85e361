// Tests for pdc::service (ctest -L service): the DynamicGraph delta
// structure, the shared coloring checkers, incremental-vs-full
// equivalence (after ANY mutation sequence the coloring is complete,
// proper, and in-palette — the same guarantee the one-shot pipeline
// gives — and a full re-solve from the same state agrees), region-cache
// accounting, batch-coalescing determinism, the full-re-solve fallback,
// and the concurrent read path: epoch-published snapshots (monotone
// sequencing, chunk reuse, held-snapshot consistency), palette
// compaction after delete churn, per-session Batcher read modes, and a
// reader/writer property test that runs clean under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <random>
#include <thread>

#include "pdc/graph/coloring.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/service/batcher.hpp"
#include "pdc/service/service.hpp"

namespace pdc {
namespace {

using service::ColoringService;
using service::ColoringSnapshot;
using service::Mutation;
using service::MutationResult;
using service::ReadMode;
using service::ServiceConfig;

// The full service invariant: every live node colored, in its palette,
// and conflict-free. Checked through the public surface.
void expect_invariant(ColoringService& svc, const char* where) {
  EXPECT_TRUE(svc.query_validate()) << where;
  const auto& g = svc.graph();
  for (NodeId v = 0; v < g.capacity(); ++v) {
    if (!g.alive(v)) continue;
    auto pal = svc.palette_of(v);
    EXPECT_GE(pal.size(), static_cast<std::size_t>(g.degree(v)) + 1)
        << where << ": degree+1 palette discipline broken at " << v;
  }
}

// ---- DynamicGraph. ----

TEST(DynamicGraph, MirrorsSeedGraph) {
  Graph g = gen::gnp(200, 0.05, 3);
  service::DynamicGraph dg(g);
  EXPECT_EQ(dg.capacity(), g.num_nodes());
  EXPECT_EQ(dg.num_alive(), g.num_nodes());
  EXPECT_EQ(dg.num_edges(), g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto a = g.neighbors(v);
    auto b = dg.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(DynamicGraph, EdgeInsertDeleteRoundTrip) {
  service::DynamicGraph dg(gen::grid(3, 3));
  const std::uint64_t m0 = dg.num_edges();
  EXPECT_FALSE(dg.has_edge(0, 8));
  EXPECT_TRUE(dg.add_edge(0, 8));
  EXPECT_FALSE(dg.add_edge(8, 0));  // already present
  EXPECT_FALSE(dg.add_edge(4, 4));  // self-loop
  EXPECT_TRUE(dg.has_edge(8, 0));
  EXPECT_EQ(dg.num_edges(), m0 + 1);
  EXPECT_TRUE(dg.remove_edge(0, 8));
  EXPECT_FALSE(dg.remove_edge(0, 8));  // already gone
  EXPECT_EQ(dg.num_edges(), m0);
}

TEST(DynamicGraph, VertexRemovalDetachesAndIdsAreNeverReused) {
  service::DynamicGraph dg(gen::complete(5));
  dg.remove_vertex(2);
  EXPECT_FALSE(dg.alive(2));
  EXPECT_EQ(dg.num_alive(), 4u);
  EXPECT_EQ(dg.num_edges(), 6u);  // K5 minus a vertex = K4
  for (NodeId v : {0u, 1u, 3u, 4u}) EXPECT_FALSE(dg.has_edge(v, 2));
  const NodeId id = dg.add_vertex();
  EXPECT_EQ(id, 5u);  // fresh id, not the dead 2
  EXPECT_EQ(dg.degree(id), 0u);
  Graph snap = dg.to_graph();
  EXPECT_EQ(snap.num_nodes(), 6u);
  EXPECT_EQ(snap.degree(2), 0u);
}

// ---- Coloring checkers. ----

TEST(Checkers, IsProperColoringAgreesWithCheckColoring) {
  Graph g = gen::gnp(150, 0.06, 11);
  D1lcInstance inst = make_degree_plus_one(g);
  d1lc::SolveResult r = d1lc::solve_d1lc(inst, {});
  ASSERT_TRUE(r.valid);
  EXPECT_TRUE(is_proper_coloring(inst, r.coloring));
  EXPECT_TRUE(is_proper_coloring(g, r.coloring));

  Coloring bad = r.coloring;
  // Force a conflict on the first edge.
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (g.degree(v) > 0) {
      bad[g.neighbors(v)[0]] = bad[v];
      break;
    }
  EXPECT_FALSE(is_proper_coloring(g, bad));

  Coloring incomplete = r.coloring;
  incomplete[0] = kNoColor;
  EXPECT_FALSE(is_proper_coloring(g, incomplete));
}

TEST(Checkers, ValidatePartialChecksOnlyTheRegion) {
  Graph g = gen::grid(1, 4);  // path 0-1-2-3
  Coloring c = {0, 1, kNoColor, kNoColor};
  std::vector<NodeId> left = {0, 1};
  std::vector<NodeId> right = {2, 3};
  EXPECT_TRUE(validate_partial(g, c, left));
  EXPECT_FALSE(validate_partial(g, c, right));  // uncolored
  c = {0, 0, 1, 2};
  // Both endpoints of the conflicting edge are outside {2, 3}.
  EXPECT_TRUE(validate_partial(g, c, right));
  EXPECT_FALSE(validate_partial(g, c, left));
}

// ---- Incremental recoloring. ----

TEST(Service, InitialSolveIsProper) {
  Graph g = gen::gnp(300, 0.03, 5);
  ColoringService svc(g);
  expect_invariant(svc, "initial");
  EXPECT_EQ(svc.stats().full_resolves, 1u);
}

TEST(Service, EdgeInsertConflictRecolorsDamageOnly) {
  Graph g = gen::gnp(400, 0.02, 9);
  ColoringService svc(g);
  // Find two non-adjacent equal-colored nodes: inserting that edge
  // must damage exactly one endpoint.
  NodeId a = kInvalidNode, b = kInvalidNode;
  for (NodeId u = 0; u < g.num_nodes() && a == kInvalidNode; ++u)
    for (NodeId v = u + 1; v < g.num_nodes(); ++v)
      if (svc.color_of(u) == svc.color_of(v) && !svc.graph().has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
  ASSERT_NE(a, kInvalidNode);
  MutationResult r = svc.apply(Mutation::insert_edge(a, b));
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.damaged, 1u);
  EXPECT_FALSE(r.full_resolve);
  EXPECT_EQ(svc.stats().incremental_recolors, 1u);
  expect_invariant(svc, "after conflict insert");
}

TEST(Service, NonConflictingMutationsDamageNothing) {
  Graph g = gen::gnp(300, 0.02, 17);
  ColoringService svc(g);
  // Deletions never damage (grow-only palettes keep held colors valid).
  auto nb = g.neighbors(0);
  ASSERT_FALSE(nb.empty());
  MutationResult r = svc.apply(Mutation::delete_edge(0, nb[0]));
  EXPECT_EQ(r.damaged, 0u);
  EXPECT_TRUE(r.valid);
  // Inserting an edge between differently colored nodes: no damage.
  NodeId a = kInvalidNode, b = kInvalidNode;
  for (NodeId u = 0; u < g.num_nodes() && a == kInvalidNode; ++u)
    for (NodeId v = u + 1; v < g.num_nodes(); ++v)
      if (svc.color_of(u) != svc.color_of(v) && !svc.graph().has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
  ASSERT_NE(a, kInvalidNode);
  r = svc.apply(Mutation::insert_edge(a, b));
  EXPECT_EQ(r.damaged, 0u);
  EXPECT_EQ(svc.stats().incremental_recolors, 0u);
  expect_invariant(svc, "after non-conflicting mutations");
}

// Property test: randomized delta sequences at several scales. After
// EVERY batch the invariant must hold (the pipeline guarantee carries
// over to the incremental path), and at the end a full re-solve from
// the same final state must also be proper.
class ServiceProperty : public ::testing::TestWithParam<int> {};

TEST_P(ServiceProperty, RandomDeltaSequencesKeepTheColoringProper) {
  Graph g;
  switch (GetParam()) {
    case 0: g = gen::gnp(200, 0.04, 21); break;
    case 1: g = gen::power_law(500, 2.5, 8.0, 22); break;
    default: g = gen::small_world(1000, 4, 0.1, 23); break;
  }
  ColoringService svc(g);
  std::mt19937_64 rng(1234 + GetParam());
  auto pick_alive = [&]() {
    const auto& dg = svc.graph();
    for (;;) {
      NodeId v = static_cast<NodeId>(rng() % dg.capacity());
      if (dg.alive(v)) return v;
    }
  };
  for (int step = 0; step < 30; ++step) {
    std::vector<Mutation> batch;
    const std::size_t k = 1 + rng() % 4;
    for (std::size_t i = 0; i < k; ++i) {
      switch (rng() % 8) {
        case 0:
          batch.push_back(Mutation::insert_vertex());
          break;
        case 1: {
          NodeId v = pick_alive();
          // Keep the graph from emptying out.
          if (svc.graph().num_alive() > 50)
            batch.push_back(Mutation::delete_vertex(v));
          break;
        }
        case 2:
        case 3: {
          NodeId u = pick_alive(), v = pick_alive();
          if (u != v) batch.push_back(Mutation::delete_edge(u, v));
          break;
        }
        default: {
          NodeId u = pick_alive(), v = pick_alive();
          if (u != v) batch.push_back(Mutation::insert_edge(u, v));
          break;
        }
      }
    }
    if (batch.empty()) continue;
    MutationResult r = svc.apply_batch(batch);
    EXPECT_TRUE(r.valid) << "step " << step;
    ASSERT_TRUE(svc.query_validate()) << "step " << step;
  }
  expect_invariant(svc, "after delta sequence");

  // A full re-solve of the final state (same graph, same palettes)
  // must also be proper — the incremental path did not paint the
  // service into a corner the one-shot pipeline could not handle.
  d1lc::RegionInstance snap = svc.snapshot_instance();
  ASSERT_TRUE(snap.instance.valid());
  d1lc::SolveResult full = d1lc::solve_d1lc(snap.instance, {});
  EXPECT_TRUE(full.valid);
  EXPECT_TRUE(is_proper_coloring(snap.instance, full.coloring));
}

INSTANTIATE_TEST_SUITE_P(Scales, ServiceProperty, ::testing::Values(0, 1, 2));

// ---- Cache accounting. ----

TEST(Service, CacheAccountingCoversEveryIncrementalRecolor) {
  Graph g = gen::gnp(300, 0.03, 31);
  ColoringService svc(g);
  std::mt19937_64 rng(77);
  for (int i = 0; i < 40; ++i) {
    NodeId u = static_cast<NodeId>(rng() % g.num_nodes());
    NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
    if (u == v) continue;
    svc.apply(Mutation::insert_edge(u, v));
  }
  const auto& s = svc.stats();
  // Every incremental recolor consulted the cache exactly once.
  EXPECT_EQ(s.cache.hits + s.cache.misses, s.incremental_recolors);
  EXPECT_GT(s.incremental_recolors, 0u);
}

TEST(Service, IsomorphicDamageHitsTheCache) {
  // Two identical disjoint components colored identically (warm
  // start), so the same local delta in each produces the SAME region
  // instance — the second recolor must be served from the cache.
  Graph comp = gen::grid(4, 4);  // 16 nodes, bipartite
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < comp.num_nodes(); ++v)
    for (NodeId u : comp.neighbors(v))
      if (v < u) {
        edges.emplace_back(v, u);
        edges.emplace_back(v + 16, u + 16);
      }
  Graph g = Graph::from_edges(32, std::move(edges));
  D1lcInstance inst = make_degree_plus_one(g);
  d1lc::SolveResult base = d1lc::solve_d1lc(inst, {});
  ASSERT_TRUE(base.valid);
  Coloring mirrored = base.coloring;
  for (NodeId v = 0; v < 16; ++v) mirrored[v + 16] = mirrored[v];
  ASSERT_TRUE(is_proper_coloring(inst, mirrored));

  ColoringService svc(inst, mirrored);
  // Find a same-colored non-adjacent pair inside component one.
  NodeId a = kInvalidNode, b = kInvalidNode;
  for (NodeId u = 0; u < 16 && a == kInvalidNode; ++u)
    for (NodeId v = u + 1; v < 16; ++v)
      if (svc.color_of(u) == svc.color_of(v) && !svc.graph().has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
  ASSERT_NE(a, kInvalidNode);
  MutationResult r1 = svc.apply(Mutation::insert_edge(a, b));
  MutationResult r2 = svc.apply(Mutation::insert_edge(a + 16, b + 16));
  EXPECT_TRUE(r1.valid);
  EXPECT_TRUE(r2.valid);
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(svc.stats().cache.hits, 1u);
  // The mirrored delta got the mirrored color.
  EXPECT_EQ(svc.color_of(std::max(a, b)),
            svc.color_of(std::max(a, b) + 16));
  expect_invariant(svc, "after mirrored deltas");
}

TEST(Service, CacheCanBeDisabled) {
  Graph g = gen::gnp(200, 0.04, 41);
  ServiceConfig cfg;
  cfg.cache_capacity = 0;
  ColoringService svc(g, cfg);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20; ++i) {
    NodeId u = static_cast<NodeId>(rng() % g.num_nodes());
    NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
    if (u != v) svc.apply(Mutation::insert_edge(u, v));
  }
  EXPECT_EQ(svc.stats().cache.hits, 0u);
  EXPECT_EQ(svc.stats().cache.misses, 0u);
  expect_invariant(svc, "cache disabled");
}

// ---- Batch coalescing. ----

TEST(Service, BatchResultIsIndependentOfArrivalOrder) {
  Graph g = gen::gnp(250, 0.03, 51);
  std::vector<Mutation> batch = {
      Mutation::insert_vertex(),
      Mutation::insert_edge(1, 2),
      Mutation::insert_edge(250, 3),  // references the new vertex
      Mutation::delete_edge(0, g.neighbors(0).empty() ? 1 : g.neighbors(0)[0]),
      Mutation::insert_edge(5, 9),
      Mutation::delete_vertex(17),
      Mutation::insert_edge(20, 30),
  };
  std::mt19937_64 rng(99);
  std::vector<Coloring> outcomes;
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Mutation> shuffled = batch;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    ColoringService svc(g);
    MutationResult r = svc.apply_batch(shuffled);
    EXPECT_TRUE(r.valid);
    ASSERT_EQ(r.new_vertices.size(), 1u);
    EXPECT_EQ(r.new_vertices[0], 250u);
    outcomes.emplace_back(svc.colors().begin(), svc.colors().end());
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i)
    EXPECT_EQ(outcomes[0], outcomes[i]) << "arrival order changed the result";
}

TEST(Service, BatchCoalescesDamageIntoOneSweep) {
  Graph g = gen::gnp(300, 0.03, 61);
  ColoringService one_by_one(g);
  ColoringService batched(g);
  std::vector<Mutation> ms;
  std::mt19937_64 rng(5);
  while (ms.size() < 10) {
    NodeId u = static_cast<NodeId>(rng() % g.num_nodes());
    NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
    if (u != v) ms.push_back(Mutation::insert_edge(u, v));
  }
  for (const Mutation& m : ms) one_by_one.apply(m);
  batched.apply_batch(ms);
  // One sweep for the whole batch vs up to one per mutation.
  EXPECT_EQ(batched.stats().batches, 1u);
  EXPECT_LE(batched.stats().incremental_recolors +
                batched.stats().full_resolves,
            2u);  // initial solve + at most one sweep
  expect_invariant(one_by_one, "one-by-one");
  expect_invariant(batched, "batched");
}

TEST(Service, BatcherFlushesOnQueryAndMaxPending) {
  Graph g = gen::gnp(200, 0.03, 71);
  ColoringService svc(g);
  service::Batcher front(svc, 3);
  EXPECT_FALSE(front.enqueue(Mutation::insert_edge(0, 50)).has_value());
  EXPECT_FALSE(front.enqueue(Mutation::insert_edge(1, 60)).has_value());
  EXPECT_EQ(front.pending(), 2u);
  // Read-your-writes: the query flushes first.
  front.query_validate();
  EXPECT_EQ(front.pending(), 0u);
  EXPECT_EQ(svc.stats().batches, 1u);
  // Auto-flush at max_pending.
  for (int i = 0; i < 3; ++i)
    EXPECT_FALSE(
        front.enqueue(Mutation::insert_edge(2, static_cast<NodeId>(80 + i)))
            .has_value());
  auto r = front.enqueue(Mutation::insert_edge(3, 90));
  EXPECT_TRUE(r.has_value());
  EXPECT_EQ(front.pending(), 0u);
}

// ---- Atomic batch rejection & fallback. ----

TEST(Service, BadBatchIsRejectedAtomically) {
  Graph g = gen::gnp(100, 0.05, 81);
  ColoringService svc(g);
  Coloring before(svc.colors().begin(), svc.colors().end());
  const std::uint64_t m0 = svc.graph().num_edges();
  std::vector<Mutation> batch = {
      Mutation::insert_vertex(),
      Mutation::insert_edge(0, 1),
      Mutation::insert_edge(5, 99999),  // bad reference
  };
  EXPECT_THROW(svc.apply_batch(batch), check_error);
  EXPECT_EQ(svc.graph().num_edges(), m0);
  EXPECT_EQ(svc.graph().capacity(), g.num_nodes());  // no vertex added
  EXPECT_EQ(before, Coloring(svc.colors().begin(), svc.colors().end()));
  expect_invariant(svc, "after rejected batch");
}

TEST(Service, ZeroFractionForcesFullResolve) {
  Graph g = gen::gnp(150, 0.05, 91);
  ServiceConfig cfg;
  cfg.full_resolve_fraction = 0.0;
  ColoringService svc(g, cfg);
  NodeId a = kInvalidNode, b = kInvalidNode;
  for (NodeId u = 0; u < g.num_nodes() && a == kInvalidNode; ++u)
    for (NodeId v = u + 1; v < g.num_nodes(); ++v)
      if (svc.color_of(u) == svc.color_of(v) && !svc.graph().has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
  ASSERT_NE(a, kInvalidNode);
  MutationResult r = svc.apply(Mutation::insert_edge(a, b));
  EXPECT_TRUE(r.full_resolve);
  EXPECT_TRUE(r.valid);
  // Initial solve + the forced fallback.
  EXPECT_EQ(svc.stats().full_resolves, 2u);
  EXPECT_EQ(svc.stats().incremental_recolors, 0u);
  expect_invariant(svc, "after forced full re-solve");
}

// ---- Snapshots: publication, sequencing, incremental construction. ----

TEST(Snapshot, PublishesOnEveryBatchWithMonotoneSequencing) {
  Graph g = gen::gnp(300, 0.03, 101);
  ColoringService svc(g);
  auto s0 = svc.snapshot();
  ASSERT_NE(s0, nullptr);
  EXPECT_EQ(s0->epoch, 1u);  // the initial solve publishes
  EXPECT_EQ(s0->batch_seq, 0u);
  EXPECT_TRUE(s0->validate());
  EXPECT_EQ(s0->num_alive, g.num_nodes());

  std::uint64_t prev_epoch = s0->epoch;
  std::uint64_t prev_seq = 0;
  std::mt19937_64 rng(3);
  for (int i = 0; i < 6; ++i) {
    NodeId u = static_cast<NodeId>(rng() % g.num_nodes());
    NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
    if (u == v) continue;
    MutationResult r = svc.apply(Mutation::insert_edge(u, v));
    auto s = svc.snapshot();
    // Read-your-writes anchor: the snapshot visible after apply returns
    // carries this batch's sequence number (or later).
    EXPECT_EQ(r.batch_seq, prev_seq + 1);
    EXPECT_GE(s->batch_seq, r.batch_seq);
    EXPECT_GT(s->epoch, prev_epoch);
    EXPECT_EQ(s->epoch, r.epoch);
    EXPECT_TRUE(s->validate());
    prev_epoch = s->epoch;
    prev_seq = r.batch_seq;
  }
  EXPECT_GE(svc.stats().snapshot_publishes, 7u);
}

TEST(Snapshot, SnapshotAgreesWithDirectState) {
  Graph g = gen::gnp(400, 0.02, 103);
  ColoringService svc(g);
  svc.apply(Mutation::insert_edge(0, 200));
  auto s = svc.snapshot();
  ASSERT_EQ(s->capacity, svc.graph().capacity());
  for (NodeId v = 0; v < s->capacity; ++v) {
    ASSERT_EQ(s->alive(v), svc.alive(v));
    if (!svc.alive(v)) continue;
    EXPECT_EQ(s->color(v), svc.color_of(v));
    auto sp = s->palette(v);
    auto dp = svc.palette_of(v);
    ASSERT_TRUE(std::equal(sp.begin(), sp.end(), dp.begin(), dp.end()));
    auto sn = s->neighbors(v);
    auto dn = svc.graph().neighbors(v);
    ASSERT_TRUE(std::equal(sn.begin(), sn.end(), dn.begin(), dn.end()));
  }
  EXPECT_EQ(s->colors_used, svc.query_colors_used());
}

TEST(Snapshot, IncrementalPublishReusesUntouchedChunks) {
  // 3000 nodes = 3 chunks (1024 + 1024 + 952). A delta confined to
  // chunk 0 must republish chunk 0 only and share the other two with
  // the previous snapshot by pointer.
  Graph g = gen::gnp(3000, 0.002, 107);
  ColoringService svc(g);
  auto before = svc.snapshot();
  ASSERT_EQ(before->chunks.size(), 3u);

  NodeId a = kInvalidNode, b = kInvalidNode;
  for (NodeId u = 0; u < 1024 && a == kInvalidNode; ++u)
    for (NodeId v = u + 1; v < 1024; ++v)
      if (svc.color_of(u) == svc.color_of(v) && !svc.graph().has_edge(u, v)) {
        a = u;
        b = v;
        break;
      }
  ASSERT_NE(a, kInvalidNode);
  const std::uint64_t rebuilt0 = svc.stats().snapshot_chunks_rebuilt;
  MutationResult r = svc.apply(Mutation::insert_edge(a, b));
  ASSERT_TRUE(r.valid);
  auto after = svc.snapshot();
  ASSERT_EQ(after->chunks.size(), 3u);
  EXPECT_NE(after->chunks[0].get(), before->chunks[0].get());
  EXPECT_EQ(after->chunks[1].get(), before->chunks[1].get());
  EXPECT_EQ(after->chunks[2].get(), before->chunks[2].get());
  EXPECT_EQ(svc.stats().snapshot_chunks_rebuilt, rebuilt0 + 1);
  EXPECT_TRUE(after->validate());
}

TEST(Snapshot, HeldSnapshotStaysConsistentAcrossLaterBatches) {
  Graph g = gen::gnp(300, 0.03, 109);
  ColoringService svc(g);
  auto held = svc.snapshot();
  std::vector<Color> held_copy;
  for (NodeId v = 0; v < held->capacity; ++v)
    held_copy.push_back(held->color(v));

  std::mt19937_64 rng(11);
  std::vector<Mutation> batch;
  for (int i = 0; i < 10; ++i) {
    NodeId u = static_cast<NodeId>(rng() % g.num_nodes());
    NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
    if (u != v) batch.push_back(Mutation::insert_edge(u, v));
  }
  batch.push_back(Mutation::delete_vertex(7));
  batch.push_back(Mutation::insert_vertex());
  ASSERT_TRUE(svc.apply_batch(batch).valid);

  // The old epoch is frozen: same colors, same census, still proper.
  EXPECT_TRUE(held->validate());
  EXPECT_TRUE(held->alive(7));
  EXPECT_EQ(held->capacity, g.num_nodes());
  for (NodeId v = 0; v < held->capacity; ++v)
    EXPECT_EQ(held->color(v), held_copy[v]);
  // And the live snapshot moved on.
  auto now = svc.snapshot();
  EXPECT_GT(now->epoch, held->epoch);
  EXPECT_FALSE(now->alive(7));
  EXPECT_EQ(now->capacity, g.num_nodes() + 1);
}

// ---- Palette compaction after delete churn. ----

TEST(Service, PaletteCompactionAfterDeleteChurn) {
  // K40 needs 40 colors; stripping it down to a path leaves maxdeg 2
  // but the census stuck at 40 — far past slack 4, so the batch that
  // strips the edges must trigger a compaction pass.
  Graph g = gen::complete(40);
  ServiceConfig cfg;
  cfg.compaction_slack = 4;
  ColoringService svc(g, cfg);
  auto held = svc.snapshot();
  EXPECT_EQ(held->colors_used, 40u);

  std::vector<Mutation> strip;
  for (NodeId u = 0; u < 40; ++u)
    for (NodeId v = u + 1; v < 40; ++v)
      if (v != u + 1) strip.push_back(Mutation::delete_edge(u, v));
  MutationResult r = svc.apply_batch(strip);
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.compacted);
  EXPECT_EQ(svc.stats().compactions, 1u);

  auto now = svc.snapshot();
  EXPECT_EQ(now->max_degree, 2u);
  EXPECT_LE(now->colors_used, 3u);  // path: maxdeg+1 bound
  EXPECT_TRUE(now->validate());
  expect_invariant(svc, "after compaction");
  // Palettes shrank back to exactly degree+1.
  for (NodeId v = 0; v < 40; ++v)
    EXPECT_EQ(svc.palette_of(v).size(),
              static_cast<std::size_t>(svc.graph().degree(v)) + 1);
  // The pre-compaction epoch a reader might still hold is untouched.
  EXPECT_TRUE(held->validate());
  EXPECT_EQ(held->colors_used, 40u);
}

TEST(Service, CompactionCanBeDisabled) {
  Graph g = gen::complete(30);
  ServiceConfig cfg;
  cfg.compaction_slack = service::kCompactionDisabled;
  ColoringService svc(g, cfg);
  std::vector<Mutation> strip;
  for (NodeId u = 0; u < 30; ++u)
    for (NodeId v = u + 1; v < 30; ++v)
      if (v != u + 1) strip.push_back(Mutation::delete_edge(u, v));
  MutationResult r = svc.apply_batch(strip);
  EXPECT_TRUE(r.valid);
  EXPECT_FALSE(r.compacted);
  EXPECT_EQ(svc.stats().compactions, 0u);
  EXPECT_EQ(svc.query_colors_used(), 30u);  // census stays stranded
  expect_invariant(svc, "compaction disabled");
}

// ---- Batcher sessions and read modes. ----

TEST(Batcher, SessionsIsolatePendingBuffersAndReadModes) {
  Graph g = gen::gnp(200, 0.03, 113);
  ColoringService svc(g);
  service::Batcher front(svc, 100);
  auto s1 = front.open_session();
  auto s2 = front.open_session();
  const std::uint64_t batches0 = svc.stats().batches;

  s1.enqueue(Mutation::insert_edge(0, 50));
  s2.enqueue(Mutation::insert_edge(1, 60));
  EXPECT_EQ(s1.pending(), 1u);
  EXPECT_EQ(s2.pending(), 1u);
  EXPECT_EQ(front.pending_total(), 2u);

  // Snapshot-mode reads flush NOTHING — not even the caller's buffer.
  s2.query_validate(ReadMode::kSnapshot);
  s2.query_colors_used(ReadMode::kSnapshot);
  EXPECT_EQ(s1.pending(), 1u);
  EXPECT_EQ(s2.pending(), 1u);
  EXPECT_EQ(svc.stats().batches, batches0);

  // A fresh read flushes the calling session ONLY: s1's pending write
  // stays buffered, unlike the old drain-the-world behavior.
  s2.query_color(1, ReadMode::kFresh);
  EXPECT_EQ(s2.pending(), 0u);
  EXPECT_EQ(s1.pending(), 1u);
  EXPECT_EQ(svc.stats().batches, batches0 + 1);
  EXPECT_GT(s2.last_flushed_seq(), 0u);
  EXPECT_EQ(s1.last_flushed_seq(), 0u);

  // Read-your-writes: the session's read snapshot is at least as new
  // as its last flush.
  auto r1 = s1.flush();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(s1.last_flushed_seq(), r1->batch_seq);
  auto snap = s1.read_snapshot(ReadMode::kFresh);
  EXPECT_GE(snap->batch_seq, s1.last_flushed_seq());
  EXPECT_EQ(front.pending_total(), 0u);
  expect_invariant(svc, "after session flushes");
}

// ---- Concurrent readers vs writer (the TSan target). ----

TEST(ServiceConcurrency, ReadersObserveProperColoringsUnderWriterChurn) {
  Graph g = gen::gnp(300, 0.03, 127);
  ColoringService svc(g);
  service::Batcher front(svc, 100);

  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 1500;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> violations{0};
  std::atomic<std::uint64_t> stale_reads{0};

  // The writer starts only once every reader holds its first snapshot:
  // on a busy host a new thread can get no core before a 12-batch writer
  // is done. This makes reads beside the batches likely, not certain (a
  // reader can finish its reads before the writer wakes), so the test
  // does not assert the overlap; `reads > 0` holds once the latch opens.
  std::latch readers_started(kReaders);

  std::vector<std::thread> pool;
  pool.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    pool.emplace_back([&, t]() {
      auto session = front.open_session();
      std::mt19937_64 rng(0x5eed + t);
      for (int i = 0; i < kReadsPerReader && !stop.load(); ++i) {
        auto snap = session.read_snapshot(ReadMode::kSnapshot);
        if (i == 0) readers_started.count_down();
        if ((i & 127) == 0) {
          // Periodic full check: the snapshot is a complete proper
          // in-palette coloring, whatever the writer is mid-way
          // through.
          if (!snap->validate()) ++violations;
        } else {
          const NodeId v = static_cast<NodeId>(rng() % snap->capacity);
          if (snap->alive(v)) {
            const Color c = snap->color(v);
            if (c == kNoColor) ++violations;
            for (NodeId u : snap->neighbors(v))
              if (snap->color(u) == c) ++violations;
          }
        }
        if (snap->epoch < 1) ++stale_reads;
        ++reads;
      }
    });
  }

  {
    // Stops and joins the readers on every way out of the writer loop, a
    // failed ASSERT included: destroying a joinable std::thread would call
    // std::terminate and lose the rest of the binary's results.
    struct StopAndJoin {
      std::atomic<bool>& stop;
      std::vector<std::thread>& pool;
      ~StopAndJoin() {
        stop.store(true);
        for (auto& th : pool) th.join();
      }
    } join_readers{stop, pool};

    // Writer churn on the main thread: randomized batches through its
    // own session, asserting read-your-writes after every flush.
    readers_started.wait();
    auto writer = front.open_session();
    std::mt19937_64 rng(2026);
    for (int b = 0; b < 12; ++b) {
      const std::size_t k = 1 + rng() % 4;
      for (std::size_t i = 0; i < k; ++i) {
        NodeId u = static_cast<NodeId>(rng() % g.num_nodes());
        NodeId v = static_cast<NodeId>(rng() % g.num_nodes());
        if (u == v) continue;
        if (rng() % 4 == 0)
          writer.enqueue(Mutation::delete_edge(u, v));
        else
          writer.enqueue(Mutation::insert_edge(u, v));
      }
      auto r = writer.flush();
      if (r.has_value()) {
        ASSERT_TRUE(r->valid) << "batch " << b;
        auto snap = writer.read_snapshot(ReadMode::kSnapshot);
        EXPECT_GE(snap->batch_seq, r->batch_seq);
        EXPECT_GE(snap->batch_seq, writer.last_flushed_seq());
      }
    }
  }  // join_readers stops and joins the readers here.

  EXPECT_EQ(violations.load(), 0u)
      << "a reader observed a torn or improper coloring";
  EXPECT_EQ(stale_reads.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  expect_invariant(svc, "after concurrent churn");
}

}  // namespace
}  // namespace pdc
