// Differential suite for the Lemma-10 pessimistic-estimator plane
// (pdc/derand/estimator.hpp):
//
//  * DOMINATION, seed by seed — every procedure's estimator total must
//    upper-bound the simulated SSP-failure count for every family
//    member (the inequality the estimator-mean guarantee rests on),
//    with the table fast path (term) agreeing exactly with the
//    source-replay reference (term_from_source) and the seed-constant
//    classification honest;
//  * the estimator-selected seed satisfies failures <= estimator_mean
//    on every procedure, with zero enumeration sweeps and the search
//    attributed to the analytic (or prefix) plane;
//  * estimator-vs-estimator Selections are bit-identical across the
//    shared-memory and sharded backends at machine counts {1, 4, 9,
//    17} on every search strategy;
//  * EstimatorMode::kRequire fails loudly (PDC_CHECK -> check_error)
//    on a procedure without an estimator, while kPrefer falls back to
//    the simulating oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "pdc/derand/estimator.hpp"
#include "pdc/derand/lemma10.hpp"
#include "pdc/derand/theorem12.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/hknt/params.hpp"
#include "pdc/hknt/procedures.hpp"
#include "pdc/mpc/cluster.hpp"

namespace pdc::derand {
namespace {

using engine::BackendTag;
using engine::PlaneTag;
using engine::SearchBackend;
using engine::Selection;

mpc::Config cluster_config(std::uint32_t machines, std::uint64_t s,
                           std::uint64_t n) {
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

/// A normal procedure that deliberately provides no estimator (the
/// dense procedures' situation): kPrefer must fall back to the
/// simulating oracle, kRequire must throw.
class NoEstimatorProc final : public NormalProcedure {
 public:
  std::string name() const override { return "NoEstimator"; }
  std::uint64_t rand_words_per_node(const ColoringState&) const override {
    return 1;
  }
  ProcedureRun simulate(const ColoringState& state,
                        const prg::BitSourceFactory& bits) const override {
    ProcedureRun run(state.num_nodes());
    for (NodeId v = 0; v < state.num_nodes(); ++v) {
      if (!state.participates(v)) continue;
      BitStream bs = bits.stream(v, 0);
      run.aux[v] = static_cast<std::int64_t>(bs.bits(1));
    }
    return run;
  }
  bool ssp(const ColoringState& state, const ProcedureRun& run,
           NodeId v) const override {
    (void)state;
    return run.aux[v] == 0;  // coin flip: a non-flat objective
  }
};

/// The shared fixture: a slack-rich instance plus every estimator-
/// providing procedure (both TryRandomColor SSP modes, GenerateSlack,
/// MultiTrial final and non-final).
struct Fixture {
  Fixture()
      : g(gen::gnp(180, 0.035, 13)),
        inst(make_random_lists(g, static_cast<Color>(g.max_degree()) + 25,
                               12, 5)),
        state(inst.graph, inst.palettes),
        params(hknt::compute_params(inst, nullptr)),
        try_slack(cfg, hknt::TryRandomColorProc::Ssp::kSlackTwiceDegree,
                  "est"),
        try_none(cfg, hknt::TryRandomColorProc::Ssp::kNone, "est"),
        gen_slack(cfg, params, "est"),
        multi(cfg, 3, 1.0, /*final=*/false, "est"),
        multi_final(cfg, 2, 1.0, /*final=*/true, "est") {
    procs = {&try_slack, &try_none, &gen_slack, &multi, &multi_final};
  }

  Graph g;
  D1lcInstance inst;
  ColoringState state;
  hknt::HkntConfig cfg;
  hknt::NodeParams params;
  hknt::TryRandomColorProc try_slack;
  hknt::TryRandomColorProc try_none;
  hknt::GenerateSlackProc gen_slack;
  hknt::MultiTrialProc multi;
  hknt::MultiTrialProc multi_final;
  std::vector<const NormalProcedure*> procs;
};

// ---- Domination + table-vs-source exactness, member by member. ----

TEST(EstimatorContract, DominatesSimulatedFailuresOnEveryMember) {
  Fixture fx;
  Lemma10Options opt;
  opt.seed_bits = 5;
  ChunkAssignment chunks =
      assign_chunks(fx.g, /*tau=*/1, opt, nullptr);
  prg::PrgFamily family = lemma10_family(opt);

  for (const NormalProcedure* proc : fx.procs) {
    SCOPED_TRACE(proc->name());
    std::unique_ptr<PessimisticEstimator> est = proc->estimator();
    ASSERT_NE(est, nullptr);
    EstimatorContext ctx;
    ctx.state = &fx.state;
    ctx.family = &family;
    ctx.chunk_of = &chunks.chunk_of;
    ctx.num_members = family.num_seeds();
    est->prepare(ctx);

    for (std::uint64_t m = 0; m < family.num_seeds(); ++m) {
      auto src = family.source(m);
      ChunkedSource chunked(src, chunks.chunk_of);
      ProcedureRun run = proc->simulate(fx.state, chunked);
      double failures = 0.0, total = 0.0;
      for (NodeId v = 0; v < fx.state.num_nodes(); ++v) {
        if (fx.state.participates(v) && !proc->ssp(fx.state, run, v))
          failures += 1.0;
        const double t = est->term(m, v);
        // Pointwise: the table fast path equals the source-replay
        // reference, terms are non-negative integers, and any constant
        // classification tells the truth.
        EXPECT_EQ(t, est->term_from_source(fx.state, chunked, v))
            << "member " << m << " node " << v;
        EXPECT_GE(t, 0.0);
        EXPECT_EQ(t, std::floor(t));
        if (std::optional<double> c = est->constant_term(v)) {
          EXPECT_EQ(t, *c) << "member " << m << " node " << v;
        }
        total += t;
      }
      EXPECT_LE(failures, total) << "member " << m;
    }
    est->release();
  }
}

// ---- The selected seed beats the estimator mean on every procedure. ----

TEST(EstimatorSelection, FailuresBoundedByEstimatorMeanOnEveryProcedure) {
  Fixture fx;
  for (const NormalProcedure* proc : fx.procs) {
    SCOPED_TRACE(proc->name());
    ColoringState state(fx.inst.graph, fx.inst.palettes);
    Lemma10Options opt;
    opt.seed_bits = 6;
    opt.strategy = SeedStrategy::kExhaustive;
    opt.use_estimator = EstimatorMode::kPrefer;
    Lemma10Report rep = derandomize_procedure(*proc, state, opt, nullptr);

    EXPECT_TRUE(rep.estimator_used);
    EXPECT_EQ(rep.estimator_mean, rep.mean_failures);
    // The estimator-mean guarantee (domination + conditional
    // expectations), and the zero-simulation claim: no enumeration
    // sweeps — the totals came from the analytic plane.
    EXPECT_LE(static_cast<double>(rep.ssp_failures),
              rep.estimator_mean + 1e-9);
    EXPECT_EQ(rep.search.sweeps, 0u);
    EXPECT_GE(rep.search.analytic.searches, 1u);
    EXPECT_EQ(rep.search.route, PlaneTag::kAnalytic);
    EXPECT_EQ(rep.wsp_violations, 0u);
    auto check = check_coloring(fx.inst, state.colors());
    EXPECT_EQ(check.monochromatic_edges, 0u);
    EXPECT_EQ(check.palette_violations, 0u);
  }
}

TEST(EstimatorSelection, PrefixWalkStrategyRunsOnTheJuntaPlane) {
  Fixture fx;
  ColoringState state(fx.inst.graph, fx.inst.palettes);
  Lemma10Options opt;
  opt.seed_bits = 6;
  opt.strategy = SeedStrategy::kPrefixWalk;
  opt.use_estimator = EstimatorMode::kPrefer;
  Lemma10Report rep =
      derandomize_procedure(fx.try_slack, state, opt, nullptr);

  EXPECT_TRUE(rep.estimator_used);
  EXPECT_EQ(rep.search.route, PlaneTag::kPrefix);
  EXPECT_EQ(rep.search.prefix.walks, 1u);
  EXPECT_EQ(rep.search.sweeps, 0u);
  EXPECT_LE(static_cast<double>(rep.ssp_failures),
            rep.estimator_mean + 1e-9);

  // Bit-identity against the walk's totals reference (use_prefix off
  // forces the identical MSB-first walk over a full analytic totals
  // pass).
  ChunkAssignment chunks = assign_chunks(fx.g, 1, opt, nullptr);
  ColoringState fresh(fx.inst.graph, fx.inst.palettes);
  Selection oracle_walk =
      lemma10_seed_selection(fx.try_slack, fresh, chunks, opt);
  Lemma10Options ref = opt;
  ref.search.options.use_prefix = false;
  Selection totals_walk =
      lemma10_seed_selection(fx.try_slack, fresh, chunks, ref);
  expect_same_selection(oracle_walk, totals_walk);
}

// ---- Backend bit-identity at machine counts {1, 4, 9, 17}. ----

class EstimatorBackends : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(EstimatorBackends, SelectionsBitIdenticalSharedVsSharded) {
  const std::uint32_t p = GetParam();
  Fixture fx;
  for (SeedStrategy strategy :
       {SeedStrategy::kExhaustive, SeedStrategy::kPrefixWalk}) {
    Lemma10Options opt;
    opt.seed_bits = 5;
    opt.strategy = strategy;
    opt.use_estimator = EstimatorMode::kRequire;
    ChunkAssignment chunks = assign_chunks(fx.g, 1, opt, nullptr);

    bool shared_est = false;
    Selection shared = lemma10_seed_selection(fx.try_slack, fx.state,
                                              chunks, opt, &shared_est);
    EXPECT_TRUE(shared_est);
    EXPECT_EQ(shared.stats.sweeps, 0u);

    mpc::Cluster cluster(cluster_config(p, 8192, fx.g.num_nodes()),
                         /*strict=*/true);
    Lemma10Options sopt = opt;
    sopt.search.backend = SearchBackend::kSharded;
    sopt.search.cluster = &cluster;
    bool dist_est = false;
    Selection dist = lemma10_seed_selection(fx.try_slack, fx.state,
                                            chunks, sopt, &dist_est);
    EXPECT_TRUE(dist_est);
    expect_same_selection(shared, dist);
    EXPECT_EQ(dist.stats.backend, BackendTag::kSharded);
    EXPECT_EQ(dist.stats.sweeps, 0u);
    EXPECT_GT(dist.stats.sharded.rounds, 0u);
    EXPECT_TRUE(cluster.ledger().violations().empty());
    if (strategy == SeedStrategy::kPrefixWalk) {
      // The junta walk converge-casts one branch sum per bit step (two
      // on the first), p-1 words per cast — O(bits), not O(members).
      EXPECT_LE(dist.stats.sharded.words,
                static_cast<std::uint64_t>(p - 1) *
                    (static_cast<std::uint64_t>(opt.seed_bits) + 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MachineCounts, EstimatorBackends,
                         ::testing::Values(1, 4, 9, 17));

// ---- Modes: kRequire fails loudly, kPrefer falls back. ----

TEST(EstimatorModes, RequireThrowsOnProcedureWithoutEstimator) {
  Fixture fx;
  NoEstimatorProc proc;
  Lemma10Options opt;
  opt.seed_bits = 4;
  opt.strategy = SeedStrategy::kExhaustive;
  opt.use_estimator = EstimatorMode::kRequire;
  ChunkAssignment chunks = assign_chunks(fx.g, 1, opt, nullptr);
  EXPECT_THROW(lemma10_seed_selection(proc, fx.state, chunks, opt),
               check_error);
}

TEST(EstimatorModes, PreferFallsBackToTheSimulatingOracle) {
  Fixture fx;
  NoEstimatorProc proc;
  Lemma10Options opt;
  opt.seed_bits = 4;
  opt.strategy = SeedStrategy::kExhaustive;
  opt.use_estimator = EstimatorMode::kPrefer;
  ChunkAssignment chunks = assign_chunks(fx.g, 1, opt, nullptr);
  bool used = true;
  Selection sel =
      lemma10_seed_selection(proc, fx.state, chunks, opt, &used);
  EXPECT_FALSE(used);
  EXPECT_GT(sel.stats.sweeps, 0u);  // the enumerating sweeps ran
  EXPECT_LE(sel.cost, sel.mean_cost + 1e-9);

  // And a full estimator-mode derandomization reports the fallback.
  ColoringState state(fx.inst.graph, fx.inst.palettes);
  Lemma10Report rep = derandomize_procedure(proc, state, opt, nullptr);
  EXPECT_FALSE(rep.estimator_used);
  EXPECT_EQ(rep.estimator_mean, 0.0);
}

// ---- Sequences: mixed procedures under one chunk assignment. ----

TEST(EstimatorSequence, MixedSequenceKeepsTheColoringValid) {
  Fixture fx;
  ColoringState state(fx.inst.graph, fx.inst.palettes);
  const NormalProcedure* seq[] = {&fx.try_none, &fx.try_slack, &fx.multi};
  Lemma10Options opt;
  opt.seed_bits = 5;
  opt.strategy = SeedStrategy::kPrefixWalk;
  opt.use_estimator = EstimatorMode::kPrefer;
  SequenceReport rep = derandomize_sequence(seq, state, opt, nullptr);
  ASSERT_EQ(rep.steps.size(), 3u);
  for (const Lemma10Report& step : rep.steps) {
    EXPECT_TRUE(step.estimator_used) << step.procedure;
    EXPECT_EQ(step.search.sweeps, 0u) << step.procedure;
    EXPECT_LE(static_cast<double>(step.ssp_failures),
              step.estimator_mean + 1e-9)
        << step.procedure;
  }
  EXPECT_EQ(rep.total_wsp_violations(), 0u);
  auto check = check_coloring(fx.inst, state.colors());
  EXPECT_EQ(check.monochromatic_edges, 0u);
  EXPECT_EQ(check.palette_violations, 0u);
}

}  // namespace
}  // namespace pdc::derand
