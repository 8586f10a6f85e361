#pragma once
// Lemma 10: derandomizing one normal (tau, Δ)-round procedure.
//
// Pipeline (matching the paper's proof):
//  1. Assign pseudorandom chunks via a proper coloring of G^{4τ}
//     (distance_coloring), so nodes within distance 4τ read disjoint
//     chunks of the PRG output.
//  2. For each candidate seed of the PRG family, simulate the procedure
//     and count nodes failing their strong success property.
//  3. Select a seed with failure count <= the seed-space mean (the
//     MSB-first prefix walk, i.e. the method of conditional
//     expectations, or exhaustive argmin — both satisfy the lemma's
//     guarantee; strategies compared in E10).
//  4. Re-run under the chosen seed, mark SSP-failing nodes Deferred,
//     commit the outputs of the rest, and verify the weak success
//     property of all non-deferred participants.
//
// The chunk coloring is the expensive preprocessing; when the ball work
// n * Δ^{4τ} exceeds `chunk_work_budget` we fall back to per-node-unique
// chunks (the "lazy PRG" — a valid distance-∞ coloring whose only cost
// in the theory is PRG output length, which our lazy expansion never
// materializes). DESIGN.md §4 discusses this substitution.
//
// Estimator mode (the paper's pessimistic-estimator derandomization):
// when the procedure provides a PessimisticEstimator
// (NormalProcedure::estimator) and Lemma10Options::use_estimator is
// kPrefer/kRequire, step 2 searches the *estimator* objective through
// SspEstimatorOracle on the engine's analytic/prefix planes instead of
// simulating per seed — zero search-phase simulations; the only
// simulate() left is the step-4 commit replay. The guarantee then binds
// the estimator mean rather than the exact SSP mean:
//
//   ssp_failures(selected) <= est_total(selected) <= estimator_mean
//
// — weaker per seed (the estimator over-counts failures via its
// pairwise collision terms) but proved without running a single
// search-phase simulation; the exact-SSP simulating oracle remains as the
// differential reference (use_estimator == kOff). Reported via
// Lemma10Report::estimator_used / estimator_mean and the
// SearchStats::route plane tag.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pdc/derand/normal_procedure.hpp"
#include "pdc/engine/search.hpp"
#include "pdc/graph/power.hpp"
#include "pdc/mpc/cost_model.hpp"
#include "pdc/prg/prg.hpp"
#include "pdc/util/check.hpp"

namespace pdc::derand {

enum class SeedStrategy {
  kExhaustive,  // argmin over all seeds
  kPrefixWalk,  // MSB-first junta-fooling prefix walk (cond. expectations)
  kFirstSeed,   // seed 0, no search (ablation: "random" seed)
  kTrueRandom,  // no PRG at all: the randomized algorithm
};

/// Whether the Lemma-10 seed search runs on the procedure's pessimistic
/// estimator (pdc/derand/estimator.hpp) instead of the simulating
/// SSP-failure oracle.
enum class EstimatorMode {
  kOff,      // always simulate per seed (exact SSP objective)
  kPrefer,   // use the estimator when the procedure provides one
  kRequire,  // fail loudly (PDC_CHECK) if the procedure provides none
};

struct Lemma10Options {
  int seed_bits = 10;
  SeedStrategy strategy = SeedStrategy::kExhaustive;
  std::uint64_t salt = 0x9E3779B97F4A7C15ULL;
  std::uint64_t true_random_seed = 1;  // master seed for kTrueRandom
  std::uint64_t chunk_work_budget = 20'000'000;
  bool force_unique_chunks = false;
  /// E10 ablation only: deliberately share chunks among nearby nodes by
  /// hashing node ids into `shared_chunk_count` chunks (violates the
  /// G^{4τ} discipline; expect correlated failures).
  std::uint32_t shared_chunk_count = 0;
  /// Defer failures? The randomized pipeline leaves failures uncolored
  /// without the Defer mark (they retry in later steps); the
  /// derandomized pipeline defers per the lemma.
  bool defer_failures = true;
  /// How the search strategies execute: backend (kSharedMemory /
  /// kSharded / kAuto), cluster, engine SearchOptions, optional stats
  /// sink. kSharded runs every totals pass as capacity-checked rounds
  /// on the cluster (machine-local shard scoring + converge-cast; see
  /// pdc::engine::sharded); Selections are bit-identical to the
  /// shared-memory engine's — the backend changes where the sums run,
  /// never what is chosen.
  engine::ExecutionPolicy search;
  /// Search the procedure's pessimistic estimator instead of the
  /// simulating SSP oracle (see the header comment). kPrefer falls
  /// back to simulation for procedures without an estimator; kRequire
  /// throws. The commit replay and deferral are unaffected.
  EstimatorMode use_estimator = EstimatorMode::kOff;
};

struct Lemma10Report {
  std::string procedure;
  std::uint64_t participants = 0;
  std::uint64_t ssp_failures = 0;   // under the executed source
  std::uint64_t deferred_new = 0;
  double defer_fraction = 0.0;      // deferred_new / participants
  /// Mean of the *searched objective* over the seed space: the exact
  /// SSP-failure mean when the simulating oracle ran, the estimator
  /// mean in estimator mode (estimator_used below says which; the
  /// guarantee ssp_failures <= mean_failures holds either way — via
  /// pointwise domination in estimator mode).
  double mean_failures = 0.0;
  /// True when the seed search ran on the procedure's pessimistic
  /// estimator (SspEstimatorOracle) instead of simulating per seed.
  bool estimator_used = false;
  /// The estimator mean the guarantee binds in estimator mode (equals
  /// mean_failures then; 0 otherwise).
  double estimator_mean = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t seed_evaluations = 0;
  /// Engine accounting for the seed search: evaluations, item sweeps
  /// (node-major passes; the pre-engine path paid one per evaluation),
  /// wall time.
  engine::SearchStats search;
  std::uint32_t chunks = 0;
  bool power_coloring_used = false;
  std::uint64_t wsp_violations = 0;
  /// Lemma 10's bound on expected failures: 1/2 + n_G * Δ^{-11τ}
  /// (with the paper's idealized PRG). Reported for comparison.
  double lemma10_bound = 0.0;
};

/// Chunk assignment reused across the procedures of one algorithm run
/// (Theorem 12 computes the power-graph coloring once up front).
struct ChunkAssignment {
  std::vector<std::uint32_t> chunk_of;
  std::uint32_t num_chunks = 0;
  bool power_coloring = false;
};

/// Computes the chunk assignment for procedures with round count tau on
/// the current graph; charges the cost model for the power coloring.
ChunkAssignment assign_chunks(const Graph& g, int tau,
                              const Lemma10Options& opt,
                              mpc::CostModel* cost);

/// The PRG family Lemma 10 searches and then replays under the chosen
/// seed — a single derivation, so the selection and the commit can
/// never disagree about which family the guarantee was proved against.
inline prg::PrgFamily lemma10_family(const Lemma10Options& opt) {
  return prg::PrgFamily(opt.seed_bits, opt.salt);
}

/// Maps a search strategy to its engine route over the 2^seed_bits
/// space (the single strategy->route mapping; lemma10 and the Luby
/// call sites share it so they cannot drift). kPrefixWalk walks the
/// bits; every other strategy searches the whole space exhaustively.
inline engine::SearchRequest lemma10_request(SeedStrategy strategy,
                                             int seed_bits,
                                             engine::ExecutionPolicy policy) {
  if (strategy == SeedStrategy::kPrefixWalk)
    return engine::SearchRequest::prefix_walk(seed_bits, policy);
  PDC_CHECK(seed_bits >= 1 && seed_bits <= 30);
  return engine::SearchRequest::exhaustive(1ULL << seed_bits, policy);
}

/// The Lemma-10 seed search alone (no commit): builds the PRG family
/// via lemma10_family(opt) and searches it for the SSP-failure
/// objective — or, in estimator mode, the procedure's pessimistic
/// estimator — with the chosen strategy (kExhaustive or kPrefixWalk)
/// on the chosen backend.
/// Exposed so the sharded differential tests can compare whole
/// Selections; derandomize_procedure routes its search strategies
/// through here. `estimator_used` (optional) reports whether the
/// estimator plane served the search.
engine::Selection lemma10_seed_selection(const NormalProcedure& proc,
                                         const ColoringState& state,
                                         const ChunkAssignment& chunks,
                                         const Lemma10Options& opt,
                                         bool* estimator_used = nullptr);

/// Derandomizes (or, for kTrueRandom, just runs) one procedure against
/// the state: selects the seed, commits outputs, defers failures.
Lemma10Report derandomize_procedure(const NormalProcedure& proc,
                                    ColoringState& state,
                                    const ChunkAssignment& chunks,
                                    const Lemma10Options& opt,
                                    mpc::CostModel* cost);

/// Convenience: chunk assignment + derandomization in one call.
Lemma10Report derandomize_procedure(const NormalProcedure& proc,
                                    ColoringState& state,
                                    const Lemma10Options& opt,
                                    mpc::CostModel* cost);

}  // namespace pdc::derand
