#pragma once
// The engine front door: one entry point for every derandomization
// search in the library.
//
//   Selection sel = pdc::engine::search(oracle, SearchRequest::
//       exhaustive(family.size(), policy));
//
// A SearchRequest names the route (exhaustive or prefix-walk) and the
// seed space; an ExecutionPolicy bundles everything about *how* the
// search executes — backend (shared-memory, sharded, or kAuto), the
// cluster, the engine SearchOptions, and an optional stats sink the
// Selection's stats are absorbed into. Capability detection is the
// engine's job, not the call site's: every route climbs the oracle tier
// ladder
//
//   CostOracle (cost / eval_batch enumeration)
//     < AnalyticOracle (closed forms, zero enumeration sweeps)
//       < PrefixOracle (junta-fooling prefix walks)
//
// automatically, and SearchStats::route records which plane served the
// totals. Call sites hold a single ExecutionPolicy instead of loose
// backend/cluster/options fields (the transitional aliases and
// engine::sharded::search_with_backend were removed after their
// one-PR deprecation window).
//
// kAuto backend resolution (the E7-style cutover): the sharded backend
// pays one machine-step pass plus converge-cast rounds per block, so
// it only wins once every machine's shard carries enough per-member
// formula work to amortize that overhead. resolve_backend picks
// kSharded exactly when a cluster is present and the oracle's item
// count reaches auto_items_per_machine per machine — divided by the
// cluster's substrate concurrency, because a thread-pool substrate
// (mpc::SubstrateKind::kThreadPool) splits the per-round step wall
// across its workers and moves the crossover proportionally earlier.
// The decision is recorded in SearchStats::backend / backend_auto, and
// bench_e7 prints the measured crossover table (per substrate) the
// default is calibrated against.

#include <cstdint>

#include "pdc/engine/seed_search.hpp"

namespace pdc::mpc {
class Cluster;
}

namespace pdc::engine {

/// Which search route a SearchRequest runs. Both guarantee
/// cost <= mean_cost over the searched space. The prefix walk is the
/// paper's method of conditional expectations; exhaustive is its
/// argmin over the same totals.
enum class SearchRoute {
  kExhaustive,  // argmin over seeds [0, num_seeds)
  kPrefixWalk,  // MSB-first junta-fooling prefix walk over 2^seed_bits
};

/// Stable kebab-case route names for trace tags and metric labels
/// ("exhaustive" / "prefix-walk").
const char* to_string(SearchRoute route);

/// Everything about how a search executes, bundled so call sites carry
/// one field instead of backend + cluster + options triples.
struct ExecutionPolicy {
  SearchBackend backend = SearchBackend::kSharedMemory;
  /// Required for kSharded; consulted by kAuto (null => shared memory).
  /// Non-owning.
  mpc::Cluster* cluster = nullptr;
  /// Block sizing, analytic/prefix plane routing.
  SearchOptions options;
  /// Optional: the front door absorbs every Selection's stats here, so
  /// call sites stop hand-threading `report.absorb(sel.stats)`.
  SearchStats* stats_sink = nullptr;
  /// kAuto cutover: choose kSharded once item_count >=
  /// (auto_items_per_machine / substrate_concurrency) * machines —
  /// each shard must amortize the per-round substrate overhead, and a
  /// parallel substrate amortizes it substrate_concurrency times
  /// faster. Tests and benches tune it; the default is calibrated
  /// against bench_e7's crossover table (sequential substrate; see
  /// bench/snapshots/BENCH_E7.json for the measured value).
  std::size_t auto_items_per_machine = 4096;
};

/// A route plus its seed space plus the policy — the front door's whole
/// input. Use the named constructors; `num_seeds` is only read by
/// kExhaustive and `seed_bits` only by kPrefixWalk.
struct SearchRequest {
  SearchRoute route = SearchRoute::kExhaustive;
  std::uint64_t num_seeds = 0;
  int seed_bits = 0;
  ExecutionPolicy policy;

  static SearchRequest exhaustive(std::uint64_t num_seeds,
                                  ExecutionPolicy policy = {}) {
    SearchRequest r;
    r.route = SearchRoute::kExhaustive;
    r.num_seeds = num_seeds;
    r.policy = policy;
    return r;
  }
  static SearchRequest prefix_walk(int seed_bits,
                                   ExecutionPolicy policy = {}) {
    SearchRequest r;
    r.route = SearchRoute::kPrefixWalk;
    r.seed_bits = seed_bits;
    r.policy = policy;
    return r;
  }
};

/// Resolves the policy's backend against the oracle's item count:
/// kSharedMemory / kSharded pass through (kSharded checks the cluster);
/// kAuto applies the cutover documented on ExecutionPolicy.
SearchBackend resolve_backend(const ExecutionPolicy& policy,
                              std::size_t item_count);

/// The front door. Resolves the backend, constructs the right engine,
/// runs the route, tags SearchStats::backend (and backend_auto when
/// kAuto decided), and absorbs the stats into policy.stats_sink when
/// set. The oracle must outlive the call.
Selection search(CostOracle& oracle, const SearchRequest& request);

}  // namespace pdc::engine
