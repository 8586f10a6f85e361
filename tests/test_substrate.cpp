// Differential suite for the pluggable MPC execution substrates
// (pdc/mpc/substrate.hpp): the thread-pool substrate must be
// observationally identical to the sequential reference — bit-identical
// inboxes and storages after every round, identical Selections /
// SearchStats / Ledger round counts for all four engine search routes,
// capacity violations surfacing on the host thread — plus the
// steady-state no-allocation guarantee of the arena outboxes, the
// SenseBarrier protocol itself, and the substrate.round observability
// (spans + mpc.substrate.* metrics).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "pdc/engine/search.hpp"
#include "pdc/engine/sharded/converge_cast.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/mpc/cluster.hpp"
#include "pdc/mpc/substrate.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/util/rng.hpp"
#include "pdc/util/sense_barrier.hpp"

// Global allocation counter for the steady-state no-allocation test
// (same pattern as tests/test_obs.cpp). Counts every thread's
// allocations — exactly what the test wants: a worker that allocates
// per round is as much a regression as the host doing it.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace pdc::mpc {
namespace {

Config cluster_config(std::uint32_t machines, std::uint64_t s,
                      SubstrateKind kind = SubstrateKind::kSequential,
                      std::uint32_t threads = 0) {
  Config c;
  c.n = 1000;
  c.phi = 0.5;
  c.local_space_words = s;
  c.num_machines = machines;
  c.substrate = kind;
  c.substrate_threads = threads;
  return c;
}

/// A messaging round with non-uniform fan-out: machine m sends k
/// payload words to each of its first min(m % 4, p - 1) successors and
/// appends a digest of its inbox to storage — enough structure that a
/// framing or ordering bug anywhere shows up as a bit difference.
StepFn chatter_step(std::uint32_t p, std::uint64_t round) {
  return [p, round](MachineId m, const std::vector<Word>& inbox,
                    std::vector<Word>& storage, Outbox& out) {
    Word digest = hash_combine(round, m);
    for_each_message(inbox, [&](MachineId from, std::span<const Word> pl) {
      digest = hash_combine(digest, from);
      for (Word w : pl) digest = hash_combine(digest, w);
    });
    storage.push_back(digest);
    const std::uint32_t fan = m % 4;
    for (std::uint32_t k = 1; k <= fan && k < p; ++k) {
      const MachineId to = (m + k) % p;
      out.send(to, {m, round, mix64(hash_combine(m, k)), digest});
    }
  };
}

// ---- SenseBarrier. ----

TEST(SenseBarrier, ReleasesEveryPartyEveryEpisode) {
  constexpr unsigned kThreads = 4;
  constexpr int kEpisodes = 200;
  SenseBarrier barrier(kThreads);
  std::atomic<int> arrived{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      bool sense = false;
      for (int e = 0; e < kEpisodes; ++e) {
        arrived.fetch_add(1);
        barrier.arrive_and_wait(sense);
        // Everyone from this episode has arrived before anyone leaves.
        if (arrived.load() < kThreads * (e + 1)) failed = true;
        barrier.arrive_and_wait(sense);  // separate episodes
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(arrived.load(), static_cast<int>(kThreads) * kEpisodes);
}

TEST(SenseBarrier, AccumulatesWaitTime) {
  SenseBarrier barrier(2);
  std::uint64_t waited = 0;
  std::thread late([&] {
    bool sense = false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    barrier.arrive_and_wait(sense);
  });
  bool sense = false;
  barrier.arrive_and_wait(sense, &waited);
  late.join();
  EXPECT_GE(waited, 1000u);  // blocked for most of the 5ms
}

// ---- Raw-round bit identity. ----

TEST(SubstrateDifferential, InboxesStoragesAndLedgersMatchSequential) {
  constexpr std::uint64_t kRounds = 4;
  for (std::uint32_t p = 1; p <= 17; ++p) {
    Cluster ref(cluster_config(p, 4096));
    for (std::uint64_t r = 0; r < kRounds; ++r) ref.round(chatter_step(p, r));
    for (std::uint32_t threads : {1u, 2u, 8u}) {
      Cluster tp(cluster_config(p, 4096, SubstrateKind::kThreadPool, threads));
      for (std::uint64_t r = 0; r < kRounds; ++r) tp.round(chatter_step(p, r));
      for (MachineId m = 0; m < p; ++m) {
        EXPECT_EQ(ref.inbox(m), tp.inbox(m))
            << "inbox of machine " << m << " at p=" << p
            << " threads=" << threads;
        EXPECT_EQ(ref.storage(m), tp.storage(m))
            << "storage of machine " << m << " at p=" << p
            << " threads=" << threads;
      }
      EXPECT_EQ(ref.ledger().rounds(), tp.ledger().rounds());
      EXPECT_EQ(ref.ledger().peak_local_space(),
                tp.ledger().peak_local_space());
      EXPECT_EQ(ref.ledger().peak_global_space(),
                tp.ledger().peak_global_space());
      EXPECT_EQ(tp.substrate_stats().rounds, kRounds);
    }
  }
}

// ---- Engine-route bit identity. ----

/// Integer-valued decomposed objective (same shape as the production
/// oracles and tests/test_sharded.cpp): node v contributes 1 under
/// `seed` when its hashed slot collides with a neighbor's.
class CollisionOracle final : public engine::CostOracle {
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

engine::SearchRequest route_request(engine::SearchRoute route,
                                    engine::ExecutionPolicy policy) {
  using engine::SearchRequest;
  using engine::SearchRoute;
  switch (route) {
    case SearchRoute::kExhaustive:
      return SearchRequest::exhaustive(64, policy);
    case SearchRoute::kPrefixWalk:
      return SearchRequest::prefix_walk(6, policy);
  }
  return {};
}

TEST(SubstrateDifferential, BothRoutesBitIdenticalAcrossSubstrates) {
  const Graph g = gen::gnp(48, 0.08, 21);
  CollisionOracle oracle(g, 8);
  const engine::SearchRoute routes[] = {
      engine::SearchRoute::kExhaustive,
      engine::SearchRoute::kPrefixWalk,
  };
  for (std::uint32_t p = 1; p <= 17; ++p) {
    for (engine::SearchRoute route : routes) {
      Cluster ref(cluster_config(p, 4096));
      engine::ExecutionPolicy ref_policy;
      ref_policy.backend = engine::SearchBackend::kSharded;
      ref_policy.cluster = &ref;
      const engine::Selection a =
          engine::search(oracle, route_request(route, ref_policy));
      for (std::uint32_t threads : {1u, 2u, 8u}) {
        Cluster tp(
            cluster_config(p, 4096, SubstrateKind::kThreadPool, threads));
        engine::ExecutionPolicy tp_policy;
        tp_policy.backend = engine::SearchBackend::kSharded;
        tp_policy.cluster = &tp;
        const engine::Selection b =
            engine::search(oracle, route_request(route, tp_policy));
        const auto ctx = [&] {
          return ::testing::Message()
                 << "route=" << engine::to_string(route) << " p=" << p
                 << " threads=" << threads;
        };
        EXPECT_EQ(a.seed, b.seed) << ctx();
        EXPECT_EQ(a.cost, b.cost) << ctx();            // bit-identical,
        EXPECT_EQ(a.mean_cost, b.mean_cost) << ctx();  // not just near
        EXPECT_EQ(a.stats.evaluations, b.stats.evaluations) << ctx();
        EXPECT_EQ(a.stats.sweeps, b.stats.sweeps) << ctx();
        EXPECT_EQ(a.stats.sharded.rounds, b.stats.sharded.rounds) << ctx();
        EXPECT_EQ(a.stats.sharded.words, b.stats.sharded.words) << ctx();
        EXPECT_EQ(ref.ledger().rounds(), tp.ledger().rounds()) << ctx();
      }
    }
  }
}

TEST(SubstrateDifferential, ConvergeCastTotalsMatchAcrossSubstrates) {
  using engine::sharded::converge_cast_sum;
  constexpr std::uint32_t kMachines = 16;
  static constexpr std::size_t kWidth = 5;
  auto run = [&](Cluster& cluster) {
    return converge_cast_sum(
        cluster, kWidth, 4,
        [](MachineId m, std::int64_t* acc) {
          for (std::size_t k = 0; k < kWidth; ++k)
            acc[k] = static_cast<std::int64_t>(mix64(hash_combine(m, k)) %
                                               1000) -
                     500;
        },
        nullptr);
  };
  Cluster ref(cluster_config(kMachines, 4096));
  Cluster tp(cluster_config(kMachines, 4096, SubstrateKind::kThreadPool, 8));
  EXPECT_EQ(run(ref), run(tp));
  EXPECT_EQ(ref.ledger().rounds(), tp.ledger().rounds());
}

// ---- Capacity violations surface on the host thread. ----

TEST(SubstrateViolations, StrictThreadPoolThrowsOnOversend) {
  // s = 64 words; one machine ships 65 — the "outgoing messages" check
  // must throw on the host thread (a worker-side throw would abort).
  Cluster cluster(cluster_config(8, 64, SubstrateKind::kThreadPool, 4));
  const std::vector<Word> big(65, 7);
  EXPECT_THROW(
      cluster.round([&](MachineId m, const std::vector<Word>&,
                        std::vector<Word>&, Outbox& out) {
        if (m == 3) out.send(0, big);
      }),
      check_error);
}

TEST(SubstrateViolations, LenientThreadPoolRecordsAndDelivers) {
  Cluster cluster(cluster_config(8, 64, SubstrateKind::kThreadPool, 4),
                  /*strict=*/false);
  const std::vector<Word> big(65, 7);
  cluster.round([&](MachineId m, const std::vector<Word>&,
                    std::vector<Word>&, Outbox& out) {
    if (m == 3) out.send(0, big);
  });
  EXPECT_GE(cluster.ledger().violations().size(), 1u);
  // Delivery still happened, with reference framing.
  std::size_t messages = 0;
  for_each_message(cluster.inbox(0),
                   [&](MachineId from, std::span<const Word> pl) {
                     EXPECT_EQ(from, 3u);
                     EXPECT_EQ(pl.size(), 65u);
                     ++messages;
                   });
  EXPECT_EQ(messages, 1u);
}

TEST(SubstrateViolations, NonexistentDestinationThrowsOnThreadPool) {
  Cluster cluster(cluster_config(4, 256, SubstrateKind::kThreadPool, 2));
  EXPECT_THROW(
      cluster.round([](MachineId m, const std::vector<Word>&,
                       std::vector<Word>&, Outbox& out) {
        if (m == 1) out.send(9, {1});
      }),
      check_error);
}

// ---- Steady-state rounds allocate nothing. ----

void expect_steady_state_alloc_free(SubstrateKind kind,
                                    std::uint32_t threads) {
  Cluster cluster(cluster_config(8, 4096, kind, threads));
  const std::uint32_t p = cluster.num_machines();
  // Fixed-shape traffic: same destinations and payload sizes every
  // round, so warm capacities fit exactly.
  const StepFn step = [p](MachineId m, const std::vector<Word>& inbox,
                          std::vector<Word>& storage, Outbox& out) {
    Word digest = 0;
    for_each_message(inbox, [&](MachineId, std::span<const Word> pl) {
      for (Word w : pl) digest += w;
    });
    if (!storage.empty()) storage[0] = digest;
    out.send((m + 1) % p, {m, digest, 42});
    out.send((m + 3) % p, {digest});
  };
  for (MachineId m = 0; m < p; ++m) cluster.storage(m).assign(1, 0);
  // Warm-up: buffer capacities, the ledger's phase key, the substrate's
  // worker pool (created lazily on the first round).
  for (int r = 0; r < 3; ++r) cluster.round(step);
  const std::uint64_t before = g_allocs.load();
  for (int r = 0; r < 5; ++r) cluster.round(step);
  EXPECT_EQ(g_allocs.load() - before, 0u)
      << "steady-state rounds allocated on the "
      << to_string(kind) << " substrate";
}

TEST(SubstrateAllocations, SequentialSteadyStateRoundsAllocateNothing) {
  expect_steady_state_alloc_free(SubstrateKind::kSequential, 0);
}

TEST(SubstrateAllocations, ThreadPoolSteadyStateRoundsAllocateNothing) {
  expect_steady_state_alloc_free(SubstrateKind::kThreadPool, 4);
}

// ---- Config resolution and stats. ----

TEST(SubstrateConfig, PlannedConcurrencyClampsToMachines) {
  Config seq = cluster_config(4, 256);
  EXPECT_EQ(planned_concurrency(seq), 1u);
  Config tp = cluster_config(4, 256, SubstrateKind::kThreadPool, 64);
  EXPECT_EQ(planned_concurrency(tp), 4u);
  Config hw = cluster_config(4, 256, SubstrateKind::kThreadPool, 0);
  EXPECT_GE(planned_concurrency(hw), 1u);
  EXPECT_LE(planned_concurrency(hw), 4u);
  EXPECT_STREQ(to_string(SubstrateKind::kSequential), "sequential");
  EXPECT_STREQ(to_string(SubstrateKind::kThreadPool), "thread-pool");
}

TEST(SubstrateConfig, ClusterReportsSubstrateWithoutSpinningItUp) {
  Cluster cluster(cluster_config(6, 256, SubstrateKind::kThreadPool, 3));
  EXPECT_STREQ(cluster.substrate_name(), "thread-pool");
  EXPECT_EQ(cluster.substrate_concurrency(), 3u);
  EXPECT_EQ(cluster.substrate_stats().rounds, 0u);
}

TEST(SubstrateStatsTest, RoundsAndPhaseWallAccumulate) {
  Cluster cluster(cluster_config(8, 4096, SubstrateKind::kThreadPool, 4));
  for (std::uint64_t r = 0; r < 6; ++r) cluster.round(chatter_step(8, r));
  const SubstrateStats& s = cluster.substrate_stats();
  EXPECT_EQ(s.rounds, 6u);
  EXPECT_GE(s.step_ms, 0.0);
  EXPECT_GE(s.exchange_ms, 0.0);
  EXPECT_GE(s.barrier_wait_ms, 0.0);
}

// ---- Observability: substrate.round spans and mpc.substrate.* ----

TEST(SubstrateObs, RoundSpansAndMetricsCarrySubstrateLabel) {
  obs::set_tracing(true);
  obs::set_metrics(true);
  obs::clear_trace();
  obs::Metrics::global().clear();
  {
    Cluster cluster(cluster_config(4, 4096, SubstrateKind::kThreadPool, 2));
    for (std::uint64_t r = 0; r < 3; ++r) cluster.round(chatter_step(4, r));
  }
  obs::set_tracing(false);
  obs::set_metrics(false);
  const auto spans = obs::trace_snapshot();
  std::size_t round_spans = 0;
  for (const auto& rec : spans) {
    if (rec.name != "substrate.round") continue;
    ++round_spans;
    bool has_substrate = false, has_barrier = false;
    for (const auto& [k, v] : rec.args) {
      if (k == "substrate") {
        has_substrate = true;
        EXPECT_EQ(v, "thread-pool");
      }
      if (k == "barrier_wait_us") has_barrier = true;
    }
    EXPECT_TRUE(has_substrate);
    EXPECT_TRUE(has_barrier);
  }
  EXPECT_EQ(round_spans, 3u);
  EXPECT_EQ(obs::Metrics::global().counter_total("mpc.substrate.rounds"), 3u);
  bool labeled = false;
  for (const auto& e : obs::Metrics::global().snapshot()) {
    if (e.name == "mpc.substrate.step_ms" && e.labels.backend == "thread-pool")
      labeled = true;
  }
  EXPECT_TRUE(labeled);
  obs::clear_trace();
  obs::Metrics::global().clear();
}

}  // namespace
}  // namespace pdc::mpc
