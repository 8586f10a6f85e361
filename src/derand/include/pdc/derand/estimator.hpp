#pragma once
// Pessimistic estimators for Lemma-10 SSP objectives.
//
// The SSP events of a normal procedure have no exact closed form — a
// node's failure indicator reads the whole run, so the exact objective
// can only be evaluated by simulating the procedure once per candidate
// seed (the enumerating SspFailureOracle in lemma10.cpp). The paper
// (and the work-efficiency follow-up, arXiv:2504.15700) derandomizes
// through *pessimistic estimators* instead: per-node sums of pairwise
// collision terms that (a) upper-bound the node's failure indicator
// pointwise for every seed and (b) read the seed only through the
// node's own chunk stream and its neighbors' chunk streams — a
// per-node junta of the chunked PRG output. Searching the estimator
// needs no simulation at all, and the conditional-expectations
// guarantee binds the estimator mean:
//
//   failures(selected) <= est_total(selected) <= mean_s est_total(s)
//
// (first inequality: pointwise domination; second: the search). The
// commit/defer pipeline is unchanged — deferral is still driven by the
// *actual* SSP failures of the single commit replay.
//
// A PessimisticEstimator is the procedure-specific piece
// (NormalProcedure::estimator() constructs one); SspEstimatorOracle
// realizes it on the engine's formula planes — an AnalyticOracle
// (closed-form member evaluation from the prepared per-member local
// draws, zero enumeration sweeps) that is also a PrefixOracle
// (per-node juntas from the chunk assignment; seed-constant nodes
// answered in O(1) by the classification, active nodes by the lazy
// completion caches). On the sharded backend the estimator search
// inherits the fixed-point converge-casts unchanged — estimator terms
// are integer-valued, so Selections stay bit-identical at every
// machine count, and the prefix-walk route casts O(bits) words.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "pdc/derand/coloring_state.hpp"
#include "pdc/engine/prefix.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/prg/prg.hpp"

namespace pdc::derand {

/// Footprint ceiling shared by every estimator draw table — the flat
/// per-(member, node) SoA tables the concrete estimators build in
/// prepare() (and util::SoaTable enforces again at reset time). 2^28
/// entries is ~2 GiB of Color; past that prepare() refuses instead of
/// silently exhausting memory, and callers must search fewer members
/// at a time.
inline constexpr std::uint64_t kMaxEstimatorTableEntries = 1ULL << 28;

/// A BitSourceFactory that routes every node to its assigned chunk —
/// the Lemma-10 discipline (nodes within distance 4τ read disjoint
/// chunks). Shared by the simulating oracle, the commit replay and the
/// estimators, so all three read the identical streams for a seed.
class ChunkedSource final : public prg::BitSourceFactory {
 public:
  ChunkedSource(const prg::BitSourceFactory& inner,
                const std::vector<std::uint32_t>& chunk_of)
      : inner_(&inner), chunk_of_(&chunk_of) {}

  BitStream stream(std::uint32_t node, std::uint32_t /*chunk*/) const override {
    return inner_->stream(node, (*chunk_of_)[node]);
  }

 private:
  const prg::BitSourceFactory* inner_;
  const std::vector<std::uint32_t>* chunk_of_;
};

/// Everything an estimator may read: the state the procedure would run
/// against, the PRG family the search enumerates, the Lemma-10 chunk
/// routing, and how many family members the search will touch.
struct EstimatorContext {
  const ColoringState* state = nullptr;
  const prg::PrgFamily* family = nullptr;
  const std::vector<std::uint32_t>* chunk_of = nullptr;
  std::uint64_t num_members = 0;
};

/// A pessimistic estimator for one procedure's SSP-failure objective.
///
/// Contract (the estimator-mean guarantee rests on it, and
/// tests/test_estimator.cpp checks it seed by seed):
///
///   * DOMINATION — for every member m and node v,
///       term(m, v) >= indicator[v participates and fails the
///                               procedure's SSP under member m];
///   * LOCALITY — term(m, v) depends on m only through the chunk
///     streams of v and its neighbors (the node's junta);
///     term_from_source is the executable statement of this: called
///     with the member's chunked source it must return exactly
///     term(m, v);
///   * EXACT ARITHMETIC — terms are integer-valued, so partial sums
///     are exact in doubles and the sharded fixed-point encode is
///     lossless (the backend bit-identity argument).
///
/// prepare() runs once per search (seed-independent invariants plus
/// any per-member local-draw tables — each machine replaying its own
/// nodes' draws for each candidate is machine-local work after the
/// Lemma-10 ball gather, not a simulation: no cross-node conflict
/// resolution ever runs). term() must then be pure arithmetic over the
/// prepared state, callable concurrently for distinct nodes.
class PessimisticEstimator {
 public:
  virtual ~PessimisticEstimator() = default;

  /// One-time preparation for a search over ctx.num_members members.
  /// Overriders must call the base (it stores the context).
  virtual void prepare(const EstimatorContext& ctx) { ctx_ = ctx; }

  /// Release prepare() state. Paired with prepare by the oracle.
  virtual void release() { ctx_ = {}; }

  /// Node v's estimator term under family member `member`, from the
  /// prepared tables. Default: derive the member's chunked source and
  /// defer to term_from_source (correct for any estimator; concrete
  /// estimators override with their table fast path).
  virtual double term(std::uint64_t member, NodeId v) const;

  /// Batched counterpart: ADDS term(member_first + j, v) into sink[j]
  /// for j in [0, member_count) — the estimator half of the
  /// AnalyticOracle::eval_members contract, same exactness rule (the
  /// per-member terms must be bit-identical to term(); terms are
  /// integers, so vectorized accumulation cannot reassociate them into
  /// different doubles). Default loops term(); the concrete estimators
  /// override with member-major SIMD sweeps over their node-major draw
  /// tables.
  virtual void term_batch(std::uint64_t member_first,
                          std::size_t member_count, NodeId v,
                          double* sink) const {
    for (std::size_t j = 0; j < member_count; ++j)
      sink[j] += term(member_first + j, v);
  }

  /// Seed-constant classification: the term's value when it is the
  /// same for every member (a non-participant, a degree-exempt node,
  /// an empty available palette), else nullopt. Consulted after
  /// prepare().
  virtual std::optional<double> constant_term(NodeId v) const {
    (void)v;
    return std::nullopt;
  }

  /// Size of v's junta in the chunked PRG output: how many distinct
  /// chunk streams term(., v) reads. Default: the distinct chunks of
  /// v's closed participating neighborhood (0 for non-participants).
  /// Accounting only — the walk never dereferences chunks itself.
  virtual std::size_t junta_size(NodeId v) const;

  /// Reference semantics: the same term evaluated directly against an
  /// arbitrary bit source, with no prepared per-member tables — the
  /// executable form of the locality contract. The differential tests
  /// compare term() against term_from_source() member by member.
  virtual double term_from_source(const ColoringState& state,
                                  const prg::BitSourceFactory& bits,
                                  NodeId v) const = 0;

 protected:
  /// Valid between prepare() and release().
  const EstimatorContext& ctx() const { return ctx_; }

 private:
  EstimatorContext ctx_;
};

/// The estimator realized on the engine's formula planes: item = node,
/// cost(member, node) = estimator term. Being a PrefixOracle (hence an
/// AnalyticOracle, hence a CostOracle) it serves every engine route —
/// exhaustive searches run analytically
/// (SearchStats::analytic, zero enumeration sweeps) and prefix walks
/// run on the junta plane (SearchStats::prefix) — on both backends.
/// The estimator, state, family and chunk assignment must outlive the
/// oracle; the oracle must outlive the search.
class SspEstimatorOracle final : public engine::PrefixOracle {
 public:
  SspEstimatorOracle(PessimisticEstimator& est, const ColoringState& state,
                     const prg::PrgFamily& family,
                     const std::vector<std::uint32_t>& chunk_of)
      : est_(&est), state_(&state), family_(&family), chunk_of_(&chunk_of) {}

  std::size_t item_count() const override { return state_->num_nodes(); }
  int bit_count() const override { return family_->seed_bits(); }

  std::size_t junta_size(std::size_t item) const override {
    return est_->junta_size(static_cast<NodeId>(item));
  }
  std::optional<double> constant_cost(std::size_t item) const override {
    return est_->constant_term(static_cast<NodeId>(item));
  }

  void begin_search(std::uint64_t num_seeds) override {
    obs::Span span("estimator.prepare");
    span.tag_u64("members", num_seeds);
    EstimatorContext ctx;
    ctx.state = state_;
    ctx.family = family_;
    ctx.chunk_of = chunk_of_;
    ctx.num_members = num_seeds;
    est_->prepare(ctx);
  }
  void end_search() override {
    obs::Span span("estimator.release");
    est_->release();
  }

  void eval_analytic(std::uint64_t first, std::size_t count,
                     std::size_t item, double* sink) const override {
    const NodeId v = static_cast<NodeId>(item);
    for (std::size_t j = 0; j < count; ++j)
      sink[j] += est_->term(first + j, v);
  }

  /// SIMD member-major path: one term_batch sweep over the estimator's
  /// node-major draw tables (bit-identical to the scalar loop above by
  /// the term_batch contract).
  void eval_members(std::uint64_t first, std::size_t count, std::size_t item,
                    double* sink) const override {
    est_->term_batch(first, count, static_cast<NodeId>(item), sink);
  }

 private:
  PessimisticEstimator* est_;
  const ColoringState* state_;
  const prg::PrgFamily* family_;
  const std::vector<std::uint32_t>* chunk_of_;
};

}  // namespace pdc::derand
