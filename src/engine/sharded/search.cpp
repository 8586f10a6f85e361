// The engine front door (pdc/engine/search.hpp). Lives in the sharded
// layer because dispatching needs both engines; every consumer already
// links pdc_engine_sharded.

#include "pdc/engine/search.hpp"

#include <algorithm>

#include "pdc/engine/sharded/sharded_search.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/util/check.hpp"

namespace pdc::engine {

const char* to_string(SearchRoute route) {
  switch (route) {
    case SearchRoute::kExhaustive: return "exhaustive";
    case SearchRoute::kPrefixWalk: return "prefix-walk";
  }
  return "";
}

SearchBackend resolve_backend(const ExecutionPolicy& policy,
                              std::size_t item_count) {
  switch (policy.backend) {
    case SearchBackend::kSharedMemory:
      return SearchBackend::kSharedMemory;
    case SearchBackend::kSharded:
      PDC_CHECK_MSG(policy.cluster != nullptr,
                    "kSharded seed search needs an mpc::Cluster");
      return SearchBackend::kSharded;
    case SearchBackend::kAuto:
      break;
  }
  if (policy.cluster == nullptr) return SearchBackend::kSharedMemory;
  const std::size_t p = policy.cluster->num_machines();
  // A parallel substrate divides the sharded backend's per-round
  // machine-step wall across its workers, so the cutover floor drops
  // proportionally: kSharded starts paying at item counts concurrency
  // times smaller than on the sequential simulator.
  const std::size_t conc =
      std::max<unsigned>(1, policy.cluster->substrate_concurrency());
  const std::size_t floor =
      std::max<std::size_t>(1, policy.auto_items_per_machine / conc);
  return item_count >= floor * p ? SearchBackend::kSharded
                                 : SearchBackend::kSharedMemory;
}

namespace {

template <typename Search>
Selection run_route(Search& search, const SearchRequest& req) {
  switch (req.route) {
    case SearchRoute::kExhaustive:
      return search.exhaustive(req.num_seeds);
    case SearchRoute::kPrefixWalk:
      return search.prefix_walk(req.seed_bits);
  }
  PDC_CHECK_MSG(false, "unknown SearchRoute");
  return {};
}

/// Every search publishes its Selection's stats into the global metrics
/// registry, keyed by the innermost open phase span and the resolved
/// route/plane/backend. The counters mirror SearchStats field for
/// field (same absorb semantics: counters/reals add, batch and
/// max_machine_load are high-water gauges), so a metrics snapshot is a
/// label-partitioned view of the same accounting the reports thread by
/// hand.
void publish_search_metrics(const SearchRequest& request,
                            const SearchStats& s) {
  obs::Metrics& m = obs::Metrics::global();
  const obs::Labels key{obs::current_phase(), to_string(request.route),
                        to_string(s.route), to_string(s.backend)};
  m.add("engine.searches", key, 1);
  m.add("engine.evaluations", key, s.evaluations);
  m.add("engine.sweeps", key, s.sweeps);
  m.gauge_max("engine.batch", key, static_cast<double>(s.batch));
  m.add_real("engine.wall_ms", key, s.wall_ms);
  if (s.backend == BackendTag::kSharded) {
    m.add("engine.sharded.rounds", key, s.sharded.rounds);
    m.add("engine.sharded.words", key, s.sharded.words);
    m.gauge_max("engine.sharded.max_machine_load", key,
                static_cast<double>(s.sharded.max_machine_load));
  }
  if (s.analytic.searches != 0) {
    m.add("engine.analytic.searches", key, s.analytic.searches);
    m.add("engine.analytic.blocks", key, s.analytic.blocks);
    m.add("engine.analytic.formula_evals", key, s.analytic.formula_evals);
  }
  if (s.prefix.walks != 0) {
    m.add("engine.prefix.walks", key, s.prefix.walks);
    m.add("engine.prefix.bit_steps", key, s.prefix.bit_steps);
    m.add("engine.prefix.junta_evals", key, s.prefix.junta_evals);
  }
}

}  // namespace

Selection search(CostOracle& oracle, const SearchRequest& request) {
  obs::Span span("engine.search");
  const SearchBackend resolved =
      resolve_backend(request.policy, oracle.item_count());
  Selection sel;
  if (resolved == SearchBackend::kSharded) {
    sharded::ShardedOptions sopt;
    sopt.search = request.policy.options;
    sharded::ShardedSeedSearch search(oracle, *request.policy.cluster, sopt);
    sel = run_route(search, request);
  } else {
    SeedSearch search(oracle, request.policy.options);
    sel = run_route(search, request);
  }
  sel.stats.backend_auto =
      request.policy.backend == SearchBackend::kAuto;
  if (request.policy.stats_sink != nullptr)
    request.policy.stats_sink->absorb(sel.stats);
  if (span.active()) {
    span.tag("route", to_string(request.route));
    span.tag("plane", to_string(sel.stats.route));
    span.tag("backend", to_string(sel.stats.backend));
    span.tag_u64("items", oracle.item_count());
    span.tag_u64("evaluations", sel.stats.evaluations);
    span.tag_u64("seed", sel.seed);
  }
  if (obs::metrics_enabled()) publish_search_metrics(request, sel.stats);
  return sel;
}

}  // namespace pdc::engine
