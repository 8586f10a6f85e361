#include "pdc/derand/lemma10.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "pdc/derand/estimator.hpp"
#include "pdc/engine/search.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/util/parallel.hpp"

namespace pdc::derand {

namespace {

/// Decomposed Lemma-10 objective: item = node, contribution = "node
/// participates and fails its strong success property under this seed".
/// begin_sweep simulates the procedure once per seed in the block
/// (exactly the per-seed work the paper's machines do); the engine's
/// node-major sweep then aggregates all per-node failure indicators for
/// the whole block in a single pass over the nodes — the pre-engine
/// path re-walked every node once per candidate seed.
class SspFailureOracle final : public engine::CostOracle {
 public:
  SspFailureOracle(const NormalProcedure& proc, const ColoringState& state,
                   const prg::PrgFamily& family,
                   const std::vector<std::uint32_t>& chunk_of)
      : proc_(&proc), state_(&state), family_(&family), chunk_of_(&chunk_of) {}

  std::size_t item_count() const override { return state_->num_nodes(); }

  void begin_sweep(std::span<const std::uint64_t> seeds) override {
    seeds_.assign(seeds.begin(), seeds.end());
    runs_.clear();
    runs_.resize(seeds.size(), ProcedureRun(0));
    parallel_for(seeds.size(), [&](std::size_t k) {
      auto src = family_->source(seeds_[k]);
      ChunkedSource chunked(src, *chunk_of_);
      runs_[k] = proc_->simulate(*state_, chunked);
    });
  }

  void end_sweep() override {
    runs_.clear();
    seeds_.clear();
  }

  void eval_batch(std::span<const std::uint64_t> seeds, std::size_t item,
                  double* sink) const override {
    const NodeId v = static_cast<NodeId>(item);
    if (!state_->participates(v)) return;
    // Block-stateful: runs_[k] is the simulation for seeds[k].
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      if (!proc_->ssp(*state_, runs_[k], v)) sink[k] += 1.0;
    }
  }

 private:
  const NormalProcedure* proc_;
  const ColoringState* state_;
  const prg::PrgFamily* family_;
  const std::vector<std::uint32_t>* chunk_of_;
  std::vector<std::uint64_t> seeds_;
  std::vector<ProcedureRun> runs_;
};

}  // namespace

engine::Selection lemma10_seed_selection(const NormalProcedure& proc,
                                         const ColoringState& state,
                                         const ChunkAssignment& chunks,
                                         const Lemma10Options& opt,
                                         bool* estimator_used) {
  PDC_CHECK(opt.strategy == SeedStrategy::kExhaustive ||
            opt.strategy == SeedStrategy::kPrefixWalk);
  prg::PrgFamily family = lemma10_family(opt);
  const engine::SearchRequest request =
      lemma10_request(opt.strategy, opt.seed_bits, opt.search);

  std::unique_ptr<PessimisticEstimator> est;
  if (opt.use_estimator != EstimatorMode::kOff) est = proc.estimator();
  PDC_CHECK_MSG(
      opt.use_estimator != EstimatorMode::kRequire || est != nullptr,
      "Lemma 10: EstimatorMode::kRequire but procedure '"
          << proc.name() << "' provides no pessimistic estimator");
  if (estimator_used != nullptr) *estimator_used = est != nullptr;
  if (est != nullptr) {
    // Estimator plane: the search never simulates — the engine serves
    // the totals from the oracle's closed forms (or, on the prefix-walk
    // route, its junta subgrid sums). The guarantee binds the estimator
    // mean via pointwise domination.
    SspEstimatorOracle oracle(*est, state, family, chunks.chunk_of);
    return engine::search(oracle, request);
  }
  SspFailureOracle oracle(proc, state, family, chunks.chunk_of);
  return engine::search(oracle, request);
}

ChunkAssignment assign_chunks(const Graph& g, int tau,
                              const Lemma10Options& opt,
                              mpc::CostModel* cost) {
  ChunkAssignment out;
  const NodeId n = g.num_nodes();
  if (opt.strategy == SeedStrategy::kTrueRandom) {
    // True randomness ignores chunks entirely (per-node streams); skip
    // the power-graph coloring.
    out.chunk_of.resize(n);
    for (NodeId v = 0; v < n; ++v) out.chunk_of[v] = v;
    out.num_chunks = n;
    out.power_coloring = false;
    return out;
  }
  if (opt.shared_chunk_count > 0) {
    // Ablation mode: deliberately violate the disjoint-chunk discipline.
    out.chunk_of.resize(n);
    for (NodeId v = 0; v < n; ++v)
      out.chunk_of[v] =
          static_cast<std::uint32_t>(mix64(v) % opt.shared_chunk_count);
    out.num_chunks = opt.shared_chunk_count;
    out.power_coloring = false;
    return out;
  }
  const int dist = 4 * tau;
  // When Δ^{4τ} >= n the distance-4τ balls cover essentially the whole
  // graph and the proper power coloring degenerates to ~n singleton
  // classes — skip straight to per-node chunks (identical outcome,
  // none of the sequential-greedy cost).
  std::uint64_t dpow = 1;
  bool ball_covers_graph = false;
  for (int i = 0; i < dist; ++i) {
    dpow *= std::max<std::uint64_t>(1, g.max_degree());
    if (dpow >= g.num_nodes()) {
      ball_covers_graph = true;
      break;
    }
  }
  if (!opt.force_unique_chunks && !ball_covers_graph &&
      ball_work_upper_bound(g, dist) <= opt.chunk_work_budget) {
    DistanceColoring dc = distance_coloring(g, dist);
    out.chunk_of = std::move(dc.chunk_of);
    out.num_chunks = dc.num_chunks;
    out.power_coloring = true;
    if (cost) cost->charge_power_graph_coloring(tau, g.num_nodes());
  } else {
    // Lazy-PRG fallback: per-node-unique chunks (a trivially valid
    // distance coloring with n classes).
    out.chunk_of.resize(n);
    for (NodeId v = 0; v < n; ++v) out.chunk_of[v] = v;
    out.num_chunks = n;
    out.power_coloring = false;
    if (cost) cost->charge_power_graph_coloring(tau, g.num_nodes());
  }
  return out;
}

Lemma10Report derandomize_procedure(const NormalProcedure& proc,
                                    ColoringState& state,
                                    const ChunkAssignment& chunks,
                                    const Lemma10Options& opt,
                                    mpc::CostModel* cost) {
  obs::Span derand_span("lemma10.derandomize", obs::SpanKind::kPhase);
  derand_span.tag("procedure", proc.name());
  Lemma10Report rep;
  rep.procedure = proc.name();
  rep.participants = state.count_participants();
  rep.chunks = chunks.num_chunks;
  rep.power_coloring_used = chunks.power_coloring;

  const int tau = proc.tau();
  const double delta =
      std::max<double>(2.0, state.graph().max_degree());
  rep.lemma10_bound =
      0.5 + static_cast<double>(state.num_nodes()) *
                std::pow(delta, -11.0 * tau);

  if (cost) {
    // Lemma 10 preprocessing: gather 8τ-hop input information, simulate,
    // and run conditional expectations.
    std::uint64_t ball_words = std::min<std::uint64_t>(
        state.num_nodes(),
        static_cast<std::uint64_t>(
            std::pow(static_cast<double>(state.graph().max_degree()), tau)) +
            1);
    cost->charge_ball_gather(ball_words, tau);
    cost->charge_local_round(state.graph().max_degree(), tau);
  }

  ProcedureRun chosen(state.num_nodes());

  if (opt.strategy == SeedStrategy::kTrueRandom) {
    prg::TrueRandomSource src(opt.true_random_seed);
    chosen = proc.simulate(state, src);
    rep.seed_evaluations = 1;
  } else {
    prg::PrgFamily family = lemma10_family(opt);
    engine::Selection sel;
    {
      obs::Span search_span("lemma10.search");
      if (opt.strategy == SeedStrategy::kFirstSeed) {
        SspFailureOracle oracle(proc, state, family, chunks.chunk_of);
        sel.seed = 0;
        sel.cost = engine::evaluate_seed(oracle, 0, &sel.stats);
        sel.mean_cost = sel.cost;
      } else {
        sel = lemma10_seed_selection(proc, state, chunks, opt,
                                     &rep.estimator_used);
      }
      if (search_span.active()) {
        search_span.tag_u64("seed", sel.seed);
        search_span.tag("estimator", rep.estimator_used ? "yes" : "no");
      }
    }
    if (rep.estimator_used) rep.estimator_mean = sel.mean_cost;
    rep.seed = sel.seed;
    rep.mean_failures = sel.mean_cost;
    rep.seed_evaluations = sel.stats.evaluations;
    rep.search = sel.stats;
    if (cost) cost->charge_conditional_expectation(opt.seed_bits);
    obs::Span replay_span("lemma10.commit_replay");
    auto src = family.source(sel.seed);
    ChunkedSource chunked(src, chunks.chunk_of);
    chosen = proc.simulate(state, chunked);
  }

  // Mark SSP failures; defer them (derandomized mode) or leave them
  // uncolored to retry (randomized mode).
  obs::Span commit_span("lemma10.commit");
  std::vector<std::uint8_t> defer(state.num_nodes(), 0);
  for (NodeId v = 0; v < state.num_nodes(); ++v) {
    if (!state.participates(v)) continue;
    if (!proc.ssp(state, chosen, v)) {
      ++rep.ssp_failures;
      if (opt.defer_failures) defer[v] = 1;
    }
  }

  // Verify the weak success property of the surviving participants
  // before committing — this is the Definition-5 contract, checked
  // rather than assumed.
  rep.wsp_violations = parallel_count(state.num_nodes(), [&](std::size_t v) {
    NodeId node = static_cast<NodeId>(v);
    return state.participates(node) && !defer[node] &&
           !proc.wsp(state, chosen, node, defer);
  });

  proc.commit(state, chosen, defer);
  if (opt.defer_failures) {
    for (NodeId v = 0; v < state.num_nodes(); ++v)
      if (defer[v]) state.set_deferred(v);
    rep.deferred_new = rep.ssp_failures;
  }
  rep.defer_fraction =
      rep.participants
          ? static_cast<double>(rep.deferred_new) /
                static_cast<double>(rep.participants)
          : 0.0;
  if (commit_span.active()) {
    commit_span.tag_u64("ssp_failures", rep.ssp_failures);
    commit_span.tag_u64("deferred", rep.deferred_new);
  }
  if (derand_span.active()) {
    derand_span.tag_u64("participants", rep.participants);
    derand_span.tag_u64("seed_evaluations", rep.seed_evaluations);
  }

#ifndef NDEBUG
  // A correct simulate() never proposes conflicting colors; verify.
  for (NodeId v = 0; v < state.num_nodes(); ++v) {
    if (state.color(v) == kNoColor) continue;
    for (NodeId u : state.graph().neighbors(v)) {
      PDC_ASSERT(state.color(u) != state.color(v));
    }
  }
#endif
  return rep;
}

Lemma10Report derandomize_procedure(const NormalProcedure& proc,
                                    ColoringState& state,
                                    const Lemma10Options& opt,
                                    mpc::CostModel* cost) {
  ChunkAssignment chunks =
      assign_chunks(state.graph(), proc.tau(), opt, cost);
  return derandomize_procedure(proc, state, chunks, opt, cost);
}

}  // namespace pdc::derand
