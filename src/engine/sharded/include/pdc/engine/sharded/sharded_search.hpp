#pragma once
// Sharded seed search: SeedSearch's blocked sweeps executed on an
// mpc::Cluster.
//
// The paper's derandomization (Lemma 10 and its users) is an MPC
// algorithm: each machine scores the candidate seeds against the items
// it owns, and the per-seed totals are combined by converge-cast. The
// shared-memory engine computes those exact totals in-process;
// ShardedSeedSearch computes them on the substrate — a ShardPlan fixes
// each item's home machine, a ShardedOracle scores a machine's shard
// into fixed-point integer sinks, and every sweep becomes one-or-more
// capacity-checked Cluster rounds (scoring folded into the first level
// of a fan-in tree chosen from local space s; see converge_cast.hpp).
//
// Bit-identical guarantee: for oracles whose per-item costs sit on the
// fixed-point grid (2^-frac_bits steps — every production oracle is
// integer-valued), the int64 shard sums decode to exactly the doubles
// the shared-memory engine accumulates, and both backends then run the
// same selection code (engine::detail), so Selections (seed, cost,
// mean_cost) match bit for bit regardless of machine count. The
// differential tests in tests/test_sharded.cpp enforce this against
// SeedSearch with strict capacity checks enabled.
//
// Oracle contract addendum: begin_sweep/end_sweep run host-side once
// per block (they model the per-seed simulation every machine performs
// on its own shard; the block's seeds are consecutive integers each
// machine derives locally, so no broadcast round is charged), and
// eval_batch must remain callable concurrently for distinct items —
// machine steps run in parallel.
//
// Analytic oracles (pdc/engine/analytic.hpp) skip the sweep contract
// entirely: each machine evaluates its shard's closed forms
// (eval_shard_analytic) with no per-block state — which is the honest
// MPC story, since a machine cannot consult another shard's simulation
// state without a communication round — and converge-casts the same
// fixed-point partials. Routing and accounting live in the shared
// engine::detail::compute_totals_blocked layer, so both backends make
// the identical analytic-vs-enumerating decision.

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "pdc/engine/search.hpp"
#include "pdc/engine/seed_search.hpp"
#include "pdc/engine/sharded/shard_plan.hpp"
#include "pdc/mpc/cluster.hpp"

namespace pdc::engine::sharded {

/// Adapter scoring one machine's shard of a CostOracle into fixed-point
/// integer sinks (the words the converge-cast moves). Opaque oracles
/// (item_count() == 1) fall back to sharding the *seed block*: machine
/// m scores seeds k with k % p == m — the only decomposition an opaque
/// objective admits.
class ShardedOracle {
 public:
  /// `use_batched_members` routes the analytic shard path through
  /// AnalyticOracle::eval_members (the SIMD member-major entry point);
  /// false forces scalar eval_analytic — differential tests only, the
  /// Selections are bit-identical either way (the eval_members
  /// exactness contract).
  ShardedOracle(CostOracle& oracle, const ShardPlan& plan, int frac_bits,
                bool use_batched_members = true);

  void begin_sweep(std::span<const std::uint64_t> seeds) {
    oracle_->begin_sweep(seeds);
  }
  void end_sweep() { oracle_->end_sweep(); }

  /// Adds machine m's contribution for every seeds[k] into sink[k]
  /// (fixed-point). Safe to call concurrently for distinct machines.
  void eval_shard(mpc::MachineId m, std::span<const std::uint64_t> seeds,
                  std::int64_t* sink) const;

  /// Analytic counterpart: adds machine m's contribution for members
  /// [first, first+count) into sink[0..count) by evaluating the
  /// oracle's closed forms over m's shard (pdc/engine/analytic.hpp) —
  /// no begin_sweep state, no simulation; the per-item fixed-point
  /// encode keeps the shard sum exact, so the converge-cast totals are
  /// bit-identical to the shared-memory analytic (and, by the
  /// AnalyticOracle exactness contract, enumerating) paths. Requires
  /// the wrapped oracle to advertise as_analytic().
  void eval_shard_analytic(mpc::MachineId m, std::uint64_t first,
                           std::size_t count, std::int64_t* sink) const;

  /// Prefix counterpart (pdc/engine/prefix.hpp): adds machine m's
  /// exact branch sum over `subgrid` (the completions of `prefix` at
  /// depth `bits_fixed`) into sink[0] — one fixed-point word per
  /// machine per walk step instead of a members-wide partial vector.
  /// Per-item encode keeps the shard sum exact, same as the other two
  /// paths. Requires the wrapped oracle to advertise as_prefix().
  void eval_shard_prefix(mpc::MachineId m, std::uint64_t prefix,
                         int bits_fixed, const MemberSubgrid& subgrid,
                         std::int64_t* sink) const;

  double decode(std::int64_t fixed) const;
  /// Items the fullest machine owns (seed-sharded mode: seeds per
  /// machine in the widest block).
  std::uint64_t max_machine_load(std::size_t block) const;
  /// True once eval_shard saw a cost the fixed-point grid cannot
  /// represent exactly. eval_shard runs inside parallel machine steps
  /// where a throw would terminate the process, so it records the
  /// violation here and the search raises it host-side after the sweep
  /// — silently quantizing would break the bit-identity guarantee.
  bool saw_off_grid_cost() const {
    return off_grid_.load(std::memory_order_relaxed);
  }

 private:
  std::int64_t encode(double cost) const;
  std::int64_t encode_checked(double cost) const;

  CostOracle* oracle_;
  const ShardPlan* plan_;
  int frac_bits_;
  bool use_batched_members_;
  mutable std::atomic<bool> off_grid_{false};
};

struct ShardedOptions {
  /// Block sizing and plane routing, shared with the in-process
  /// engine (max_batch == 0 resolves adaptively, then clamps so one
  /// partial vector fits in local space).
  SearchOptions search;
  /// Fixed-point fractional bits for the integer sinks. 20 keeps exact
  /// integer totals up to 2^43 — far beyond any in-repo objective —
  /// while representing sub-integer costs to ~1e-6.
  int frac_bits = 20;
  /// Aggregation-tree fan-in; 0 picks the largest fan-in whose
  /// per-parent receive volume fits in local space (pick_fan_in).
  std::uint32_t fan_in = 0;
};

/// Drives SeedSearch's three routes on a cluster. The oracle and
/// cluster must outlive the search; every sweep charges real rounds to
/// the cluster's ledger under phase "seed-search(sharded)" (the
/// caller's phase is restored afterwards). Sweeps use the machines'
/// persistent storage as converge-cast scratch — overwritten, then
/// released — so callers must not keep state resident there across a
/// search (see converge_cast.hpp's storage contract).
class ShardedSeedSearch {
 public:
  ShardedSeedSearch(CostOracle& oracle, mpc::Cluster& cluster,
                    ShardedOptions opt = {});

  // adapter_ points at this object's own plan_, so copies/moves would
  // leave it aimed at the source; a search is built, run, discarded.
  ShardedSeedSearch(const ShardedSeedSearch&) = delete;
  ShardedSeedSearch& operator=(const ShardedSeedSearch&) = delete;

  /// Index search: argmin over seeds 0..num_seeds-1.
  Selection exhaustive(std::uint64_t num_seeds);
  /// Junta-fooling prefix walk over 2^seed_bits members. Oracle-backed
  /// (the oracle advertises as_prefix and use_prefix allows): each of
  /// the seed_bits steps runs one converge-cast of a single branch sum
  /// (two on the first step) — O(seed_bits) cast words per walk
  /// instead of the totals routes' O(2^seed_bits). Otherwise the walk
  /// runs over a full sharded totals pass. Selections are bit-identical
  /// to the shared-memory walk for fixed-point-exact oracles.
  Selection prefix_walk(int seed_bits);

  const ShardPlan& plan() const { return plan_; }

 private:
  std::vector<double> compute_totals(std::uint64_t num_seeds,
                                     SearchStats& stats);

  CostOracle* oracle_;
  mpc::Cluster* cluster_;
  ShardedOptions opt_;
  ShardPlan plan_;
  ShardedOracle adapter_;
};

}  // namespace pdc::engine::sharded
