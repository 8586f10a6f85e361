#pragma once
// Decomposable seed-search engine.
//
// Every derandomization step in this library — Lemma 10 seed selection,
// Lemma 23 hash-family selection, the derandomized Luby rounds, the
// low-degree hash trials — reduces to "pick a seed whose aggregate cost
// beats the seed-space mean". In the paper's MPC model that aggregate is
// always a *sum of per-node (per-machine) contributions*, aggregated in
// parallel: each machine scores the candidate seeds against its local
// shard, and the totals are combined by a converge-cast. The engine
// makes that structure explicit. Instead of an opaque
// `cost(seed) -> double`, callers implement a CostOracle that exposes
//
//     item_count()               — how many independent contributors
//                                  (nodes / machines) the objective has;
//     cost(seed, item)           — item's contribution under `seed`;
//     eval_batch(seeds, item, …) — optional: score *many* seeds against
//                                  one item in a single visit (amortizes
//                                  the per-item setup: neighbor scans,
//                                  palette walks, availability lists);
//     begin_sweep(seeds)         — optional: per-block precompute (e.g.
//                                  simulate a procedure run per seed).
//
// The engine then drives node-major sweeps: one parallel pass over the
// items scores a whole block of candidate seeds (cache-friendly,
// OpenMP over items instead of over seeds), which is both faithful to
// the paper's aggregation story and the main hot-path win — the legacy
// scalar interface re-walked the entire graph once per candidate seed.
//
// See src/engine/README.md for the oracle contract and guidance on when
// to implement eval_batch.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace pdc::engine {

class AnalyticOracle;
class PrefixOracle;
struct MemberSubgrid;

/// Which substrate executes a seed search. Call sites that run on the
/// MPC cluster accept this choice: kSharedMemory keeps the in-process
/// engine (pdc::engine::SeedSearch); kSharded routes every sweep through
/// mpc::Cluster rounds (pdc::engine::sharded::ShardedSeedSearch) —
/// machine-local shard scoring plus a converge-cast of the per-seed
/// partial totals. Both backends return bit-identical Selections for
/// oracles whose costs sit on the sharded backend's fixed-point grid
/// (all production oracles are integer-valued). kAuto defers the choice
/// to the engine front door (pdc/engine/search.hpp), which sizes the
/// per-machine shard against the cluster (the E7-style cutover) and
/// records its decision in SearchStats::backend / backend_auto.
enum class SearchBackend {
  kSharedMemory,
  kSharded,
  kAuto,
};

/// Which evaluation plane served a search's totals — the capability
/// ladder's observable outcome (cost/batch enumeration < analytic
/// closed forms < prefix-conditioned junta walk). kMixed marks stats
/// absorbed from searches served by different planes.
enum class PlaneTag : std::uint8_t {
  kNone = 0,
  kEnumerating,
  kAnalytic,
  kPrefix,
  kMixed,
};

/// Which substrate a search actually ran on (after kAuto resolution).
enum class BackendTag : std::uint8_t {
  kNone = 0,
  kSharedMemory,
  kSharded,
  kMixed,
};

namespace detail {
template <typename Tag>
Tag merge_tag(Tag a, Tag b) {
  if (a == Tag::kNone) return b;
  if (b == Tag::kNone || a == b) return a;
  return Tag::kMixed;
}
}  // namespace detail

/// Stable lowercase names for reports, trace tags, and metric labels
/// ("enumerating" / "analytic" / "prefix" / "mixed"; "" for kNone).
const char* to_string(PlaneTag plane);
/// ("shared-memory" / "sharded" / "mixed"; "" for kNone).
const char* to_string(BackendTag backend);

/// Accounting for searches executed on the sharded (MPC) backend; all
/// zero when a search ran in shared memory.
struct ShardedStats {
  /// Cluster rounds consumed by the sweeps (scoring + converge-cast).
  std::uint64_t rounds = 0;
  /// Payload words converge-cast up the aggregation tree (each non-root
  /// machine sends its block-wide partial vector exactly once per sweep).
  std::uint64_t words = 0;
  /// Items resident on the fullest machine under the shard plan.
  std::uint64_t max_machine_load = 0;

  void absorb(const ShardedStats& o) {
    rounds += o.rounds;
    words += o.words;
    max_machine_load = std::max(max_machine_load, o.max_machine_load);
  }
};

/// Accounting for searches (or blocks of a search) served by the
/// analytic oracle plane — closed-form evaluation instead of
/// enumerating sweeps. All zero when every block enumerated.
struct AnalyticStats {
  /// Totals passes (one per search route invocation) that ran fully
  /// analytic.
  std::uint64_t searches = 0;
  /// Analytic block passes (the analytic counterpart of `sweeps`).
  std::uint64_t blocks = 0;
  /// (item, member) closed-form evaluations performed.
  std::uint64_t formula_evals = 0;

  void absorb(const AnalyticStats& o) {
    searches += o.searches;
    blocks += o.blocks;
    formula_evals += o.formula_evals;
  }
};

/// Accounting for searches served by the prefix plane — Harris-style
/// junta-fooling walks over seed-bit prefixes (pdc/engine/prefix.hpp).
/// All zero when no walk ran oracle-backed.
struct PrefixStats {
  /// Oracle-backed prefix walks completed.
  std::uint64_t walks = 0;
  /// Bits fixed across those walks (each step = one branch comparison).
  std::uint64_t bit_steps = 0;
  /// Junta completions evaluated: one unit = one closed-form member
  /// evaluation for one item, the same unit as
  /// AnalyticStats::formula_evals — so the two planes' formula work is
  /// directly comparable. Items classified seed-constant never
  /// contribute, so the default walk pays exactly
  /// (items - constant items) * members — strictly below the analytic
  /// member loop whenever any item is constant. The aspirational
  /// items * bits * max-junta ceiling (tight only for sublinear
  /// eval_prefix overrides) is property-tested on instances whose
  /// juntas are at least members/bits wide, where the default
  /// implementation meets it too.
  std::uint64_t junta_evals = 0;

  void absorb(const PrefixStats& o) {
    walks += o.walks;
    bit_steps += o.bit_steps;
    junta_evals += o.junta_evals;
  }
};

/// Work accounting for one (or several, via absorb) seed searches.
struct SearchStats {
  /// Full-objective evaluations: one unit = all items scored for one
  /// seed. Matches the retired prg shims' `evaluations` semantics.
  /// Counted identically on the enumerating and analytic paths.
  std::uint64_t evaluations = 0;
  /// *Enumerating* passes over the item set (the MPC "every machine
  /// simulates the block against its shard" unit). The legacy scalar
  /// path paid one sweep per evaluation; batched sweeps score up to
  /// SearchOptions::max_batch seeds per pass; the analytic plane pays
  /// none at all (its passes are counted in `analytic.blocks`).
  std::uint64_t sweeps = 0;
  /// Largest sweep block actually used (seeds scored per item pass).
  /// Records the adaptive choice when SearchOptions::max_batch == 0.
  std::uint64_t batch = 0;
  /// Wall time spent inside the engine, milliseconds.
  double wall_ms = 0.0;
  /// MPC-substrate accounting (sharded backend only).
  ShardedStats sharded;
  /// Analytic-plane accounting (closed-form oracles only).
  AnalyticStats analytic;
  /// Prefix-plane accounting (junta-fooling walks only).
  PrefixStats prefix;
  /// Which plane served the totals (set by the engine; kMixed after
  /// absorbing searches served differently). Lets reports and benches
  /// attribute every search to its rung of the capability ladder.
  PlaneTag route = PlaneTag::kNone;
  /// Which substrate the search ran on (after kAuto resolution).
  BackendTag backend = BackendTag::kNone;
  /// True when a kAuto policy made the backend choice (the front door
  /// records its E7-style cutover decision here).
  bool backend_auto = false;

  void absorb(const SearchStats& o) {
    evaluations += o.evaluations;
    sweeps += o.sweeps;
    batch = std::max(batch, o.batch);
    wall_ms += o.wall_ms;
    sharded.absorb(o.sharded);
    analytic.absorb(o.analytic);
    prefix.absorb(o.prefix);
    route = detail::merge_tag(route, o.route);
    backend = detail::merge_tag(backend, o.backend);
    backend_auto = backend_auto || o.backend_auto;
  }
};

/// Result of a search. Both search routes guarantee cost <= mean_cost
/// (the conditional-expectations / averaging argument).
struct Selection {
  std::uint64_t seed = 0;
  double cost = 0.0;       // objective total at the chosen seed
  double mean_cost = 0.0;  // expectation over the searched seed space
  SearchStats stats;
};

/// A decomposable cost objective: total(seed) = sum_item cost(seed, item).
/// Implementations must be deterministic in (seed, item); `cost` and
/// `eval_batch` may be called concurrently for distinct items.
///
/// `cost` and `eval_batch` default to each other, so an oracle
/// overrides exactly one: `cost` when per-(seed, item) evaluation is
/// natural, `eval_batch` when one visit to the item can amortize setup
/// across a seed block (neighbor scans, palette walks, availability
/// lists). Overriding neither is a contract violation (the defaults
/// would recurse).
class CostOracle {
 public:
  virtual ~CostOracle() = default;

  /// Number of independent contributors (nodes, machines, …). An
  /// item_count of 1 marks an opaque objective: the engine then
  /// parallelizes over seeds (legacy behavior) instead of items.
  virtual std::size_t item_count() const = 0;

  /// Analytic capability probe: non-null when the oracle exposes
  /// closed-form per-item evaluation (see pdc/engine/analytic.hpp —
  /// AnalyticOracle overrides this to return itself). Every search
  /// route consults it before falling back to enumerating sweeps.
  virtual AnalyticOracle* as_analytic() { return nullptr; }

  /// Prefix capability probe — the top rung of the ladder: non-null
  /// when the oracle can answer exact subgrid sums conditioned on
  /// seed-bit prefixes (see pdc/engine/prefix.hpp — PrefixOracle
  /// overrides this to return itself). Consulted by the prefix-walk
  /// route before falling back to a totals pass.
  virtual PrefixOracle* as_prefix() { return nullptr; }

  /// Item's contribution to the objective under `seed`. Only called
  /// between begin_sweep/end_sweep for a block containing `seed`.
  virtual double cost(std::uint64_t seed, std::size_t item) const {
    double sink = 0.0;
    const std::uint64_t seeds[1] = {seed};
    eval_batch(std::span<const std::uint64_t>(seeds, 1), item, &sink);
    return sink;
  }

  /// Hook called once before each block of seeds is swept (and before
  /// any cost/eval_batch call for those seeds). Oracles whose per-item
  /// costs require global per-seed state (e.g. a simulated procedure
  /// run) compute it here, for the whole block at once.
  virtual void begin_sweep(std::span<const std::uint64_t> seeds) {
    (void)seeds;
  }

  /// Hook called after the block's sweep completes; release per-seed
  /// state acquired in begin_sweep.
  virtual void end_sweep() {}

  /// Add item's contribution for every seeds[k] into sink[k]. The
  /// engine always passes the exact span it gave begin_sweep, so
  /// block-stateful oracles (those caching per-seed state in
  /// begin_sweep) may index that state by k. Such oracles must be
  /// driven through the engine; the default cost() wrapper passes a
  /// singleton span and is only meaningful for oracles whose
  /// eval_batch reads the seed *values*.
  virtual void eval_batch(std::span<const std::uint64_t> seeds,
                          std::size_t item, double* sink) const {
    for (std::size_t k = 0; k < seeds.size(); ++k)
      sink[k] += cost(seeds[k], item);
  }
};

/// Adapter for the legacy opaque shape `cost(seed) -> double` (whole
/// objective in one call). item_count() == 1, so the engine evaluates
/// distinct seeds concurrently — `fn` must tolerate that, exactly as
/// the retired pdc::prg::cond_exp callback contract required.
class ScalarOracle final : public CostOracle {
 public:
  explicit ScalarOracle(std::function<double(std::uint64_t)> fn)
      : fn_(std::move(fn)) {}
  std::size_t item_count() const override { return 1; }
  double cost(std::uint64_t seed, std::size_t /*item*/) const override {
    return fn_(seed);
  }

 private:
  std::function<double(std::uint64_t)> fn_;
};

struct SearchOptions {
  /// Seeds scored per item sweep. Bounds the oracle's per-block state
  /// (begin_sweep caches one entry per seed in the block) and each
  /// thread's accumulator. 0 (the default) derives the block size from
  /// the oracle's item_count() and a cache-footprint estimate — see
  /// resolve_max_batch(); any value >= 1 is used verbatim by the
  /// shared-memory engine. (The sharded backend additionally caps any
  /// resolved value at half the cluster's local space, a physical
  /// limit: a fold-round machine holds two block-wide partials.
  /// SearchStats::batch always reports the width actually used.)
  std::size_t max_batch = 0;
  /// Consult the oracle's analytic plane (closed-form evaluation, zero
  /// enumeration sweeps) when it advertises one. false forces the
  /// enumerating sweeps — differential tests and ablations only; the
  /// Selections are bit-identical either way (the AnalyticOracle
  /// exactness contract).
  bool use_analytic = true;
  /// Consult the oracle's prefix plane (junta-conditioned subgrid sums)
  /// on the prefix-walk route when it advertises one. false forces the
  /// walk to run over a full totals pass (analytic or enumerating per
  /// use_analytic) — the differential reference; the Selections are
  /// bit-identical either way for integer-valued oracles (the
  /// PrefixOracle exactness contract).
  bool use_prefix = true;
  /// Route analytic blocks through AnalyticOracle::eval_members (the
  /// SIMD member-major entry point) instead of the scalar
  /// eval_analytic. false forces the scalar path — differential tests
  /// and the bench_planes scalar leg only; the Selections are
  /// bit-identical either way (the eval_members exactness contract).
  bool use_batched_members = true;
};

/// Resolves SearchOptions::max_batch against an oracle's item count.
/// Explicit values pass through; the adaptive policy (max_batch == 0)
/// targets two costs that pull in opposite directions: each additional
/// seed in the block amortizes the per-item setup (neighbor scans,
/// palette walks) one more time — so more items justify wider blocks —
/// while the per-thread sink of `block` doubles plus the oracle's
/// per-seed block state must stay cache-resident. The policy sizes the
/// block at an eighth of the item count, rounded up to a power of two
/// and clamped between a floor of 128 and a 4096-double sink (32 KiB,
/// a typical L1d's worth).
std::size_t resolve_max_batch(const SearchOptions& opt,
                              std::size_t item_count);

/// Drives searches over an enumerable seed space against one oracle.
/// The oracle reference must outlive the SeedSearch.
class SeedSearch {
 public:
  explicit SeedSearch(CostOracle& oracle, SearchOptions opt = {});

  /// Index search: argmin of the total over seeds 0..num_seeds-1 (hash
  /// families index their members this way). Guarantees
  /// cost <= mean_cost.
  Selection exhaustive(std::uint64_t num_seeds);

  /// Harris-style junta-fooling walk over 2^seed_bits members: fix seed
  /// bits MSB -> LSB, at each step comparing the two children's exact
  /// branch sums and keeping the smaller. When the oracle advertises the
  /// prefix capability (CostOracle::as_prefix) and
  /// SearchOptions::use_prefix allows, each step's sums come from
  /// PrefixOracle::eval_prefix — seed-constant items answer in O(1) and
  /// active items pay only their own junta's completions; no totals
  /// vector is ever materialized and no enumeration sweep runs.
  /// Otherwise the walk runs over a full totals pass (analytic or
  /// enumerating), which is the differential reference. Guarantees
  /// cost <= mean_cost (conditional expectations, full depth).
  Selection prefix_walk(int seed_bits);

 private:
  /// Blocked batched sweep filling totals[s] = sum_item cost(s, item)
  /// for s in [0, num_seeds); accounts sweeps/evaluations into `stats`.
  std::vector<double> compute_totals(std::uint64_t num_seeds,
                                     SearchStats& stats);

  CostOracle* oracle_;
  SearchOptions opt_;
};

/// Evaluates one seed's total through the oracle (one sweep). Used by
/// callers that need a cost outside a search (e.g. the first-seed
/// ablation strategy).
double evaluate_seed(CostOracle& oracle, std::uint64_t seed,
                     SearchStats* stats = nullptr);

namespace detail {

/// Selection logic shared by every backend. Both take the full vector
/// of per-seed totals (totals[s] = sum_item cost(s, item)) and return
/// the Selection *without* stats/wall accounting — the caller fills
/// those in. Keeping these as the single implementation is what makes
/// the sharded backend's "bit-identical Selection" guarantee a matter
/// of totals equality rather than re-derivation.

/// Argmin + mean over the whole space (exhaustive / index search).
Selection select_exhaustive(const std::vector<double>& totals);

/// The MSB->LSB prefix walk over 2^seed_bits totals — the selection
/// semantics of SeedSearch::prefix_walk, expressed against a full
/// totals vector. The oracle-backed walk must pick the same seed from
/// the same costs (exact for integer-valued oracles, where partial
/// sums and parent-minus-child derivations are exact in doubles); the
/// differential tests compare the two.
Selection select_prefix_walk(const std::vector<double>& totals,
                             int seed_bits);

/// One step's exact branch sums for the oracle-backed prefix walk:
/// fill out[0] with the sum of per-item costs over `sub0` (the child
/// extending the current prefix with bit 0, whose (prefix << 1) value
/// is `child0_prefix` at depth `bits_fixed`) and, when `need_both`,
/// out[1] over `sub1`. Backends differ in where the item pass runs
/// (in-process threads vs. a converge-cast per step).
using PrefixBranchFn = std::function<void(
    std::uint64_t child0_prefix, int bits_fixed, const MemberSubgrid& sub0,
    const MemberSubgrid& sub1, bool need_both, double* out)>;

/// The walk loop shared by both oracle-backed backends: step t asks for
/// the children's branch sums (both at t = 0; afterwards only child 0,
/// deriving child 1 as parent - child0 — exact for integer costs),
/// keeps the smaller branch (ties to 0), and finishes with all bits
/// fixed, so the final branch sum *is* the chosen seed's total. Fills
/// seed/cost/mean_cost only; the backend owns stats and wall time.
Selection run_prefix_walk_oracle(int seed_bits,
                                 const PrefixBranchFn& branch_sums);

/// The oracle-backed walk's stats discipline, shared by both backends:
/// one walk of seed_bits steps, the oracle's junta work, evaluations
/// counted as the full bit space (the walk certifies branch means over
/// all of it — the same informational unit the totals routes count),
/// and the kPrefix route tag.
void stamp_prefix_walk(SearchStats& stats, int seed_bits,
                       std::uint64_t junta_evals);

/// Route drivers over an arbitrary totals producer (the one thing the
/// backends differ in): compute totals, select, fill stats and wall
/// time. Both SeedSearch and sharded::ShardedSeedSearch delegate here,
/// so route semantics cannot drift between backends.
using TotalsFn =
    std::function<std::vector<double>(std::uint64_t, SearchStats&)>;
Selection run_exhaustive(const TotalsFn& totals, std::uint64_t num_seeds);
/// Totals-reference driver for the prefix-walk route (the mirror of
/// run_exhaustive): compute the backend's totals, run select_prefix_walk,
/// fill stats and wall time. Both backends' use_prefix = false
/// fallbacks delegate here so the reference semantics cannot drift
/// between them.
Selection run_prefix_walk_totals(const TotalsFn& totals, int seed_bits);

/// Scores one block of consecutive seeds through the full enumerating
/// oracle contract (begin_sweep / item sweep / end_sweep) into
/// out[0..seeds.size()). Backends differ in where the item pass runs
/// (in-process threads vs. cluster rounds).
using EnumerateBlockFn =
    std::function<void(std::span<const std::uint64_t> seeds, double* out)>;
/// Fills out[0..count) with the totals of members [first, first+count)
/// from the oracle's closed forms (pdc/engine/analytic.hpp). Backends
/// differ only in sharding and fixed-point encoding.
using AnalyticBlockFn =
    std::function<void(std::uint64_t first, std::size_t count, double* out)>;

/// The blocked totals loop shared by every backend: splits the seed
/// space into max_batch-wide blocks and routes each block to the
/// analytic plane when `use_analytic` and the oracle advertises one
/// (CostOracle::as_analytic), falling back to the backend's enumerating
/// sweep otherwise. Owns begin_search/end_search pairing and the
/// accounting rules — evaluations/batch on both paths, sweeps on the
/// enumerating path only, AnalyticStats on the analytic path only — so
/// neither the routing decision nor the stats discipline can drift
/// between the shared-memory and sharded backends. (TotalsFn producers
/// are built on top of this; the selection code then sees identical
/// totals regardless of path, which is the bit-identity argument.)
std::vector<double> compute_totals_blocked(CostOracle& oracle,
                                           std::uint64_t num_seeds,
                                           std::size_t max_batch,
                                           bool use_analytic,
                                           SearchStats& stats,
                                           const EnumerateBlockFn& enumerate,
                                           const AnalyticBlockFn& analytic);

}  // namespace detail

}  // namespace pdc::engine
