#pragma once
// pdc::service — persistent coloring-as-a-service on top of the
// deterministic D1LC pipeline.
//
// A ColoringService owns a mutable graph plus a current proper
// coloring and serves two request families through one front door:
//
//   * Queries: color lookups, subgraph colorings, validity checks,
//     stats — O(degree) or better, never touch the solver, and never
//     take the writer's lock: they read the latest atomically
//     published ColoringSnapshot (see snapshot.hpp), so reads scale
//     across threads and are never blocked by an in-flight recolor.
//   * Mutations: vertex/edge insert/delete, applied as canonicalized
//     batches. A batch damages a bounded region (new vertices plus the
//     endpoints whose colors a new edge invalidated); the service
//     recolors ONLY that region with the deterministic pipeline against
//     the fixed exterior (d1lc::build_region_instance +
//     d1lc::solve_d1lc), falling back to a full re-solve when the
//     damaged region exceeds ServiceConfig::full_resolve_fraction of
//     the live graph. Region solves are memoized in a RegionCache —
//     the deterministic pipeline makes them pure functions of the
//     region instance, so repeated delta shapes skip their seed
//     searches.
//
// Concurrency contract (details in src/service/README.md): exactly one
// writer at a time — apply_batch serializes on an internal mutex and,
// before returning, publishes a new immutable snapshot carrying the
// batch's commit sequence number (MutationResult::batch_seq). Any
// number of reader threads may call the query_* methods concurrently
// with the writer; each query binds to one snapshot, so it observes a
// single complete proper coloring (possibly one batch stale, never
// torn). Publishes are monotone in epoch and batch_seq, which is what
// the Batcher's sessions build read-your-writes on. The direct state
// accessors (graph()/color_of()/colors()/palette_of()) read the
// writer's mutable arrays without synchronization — writer-thread or
// quiesced use only (tests, REPL, benches).
//
// Invariant (checked by tests after every batch): the coloring is
// complete and proper over the live graph, and every node's color lies
// in its service palette. Palettes follow the degree+1 discipline and
// grow monotonically between compactions: an edge insert extends each
// endpoint's palette with the smallest absent colors up to degree+1,
// so deletions never invalidate held colors. Heavy delete churn can
// strand the color count far above the current max degree; when
// colors_used exceeds (max live degree + 1) + compaction_slack the
// writer runs an amortized palette compaction — greedily remaps every
// color >= max-degree+1 into the dense range, shrinks palettes back to
// exactly degree+1, and republishes. Held snapshots from before the
// compaction stay internally consistent.
//
// Batch semantics (the coalescing front door contract): a batch is a
// SET of mutations applied atomically in a canonical order — vertex
// inserts, then edge inserts, then edge deletes, then vertex deletes,
// each class deduplicated — so the result is independent of arrival
// order. New vertex ids are `capacity() .. capacity()+k-1` and may be
// referenced by edge mutations in the same batch. One damaged-region
// sweep serves the whole batch: concurrent deltas amortize one blocked
// search.
//
// Observability: every request runs under a `service.request` span
// tagged with its request id; batches add `service.batch` (mutation
// count, damaged size), recolors `service.recolor` (region size,
// full/incremental, cache outcome), publishes `service.snapshot.publish`
// (epoch, leaves rebuilt/reused, bytes written) and compactions
// `service.compact`, which checks the republished snapshot's
// validate() before returning. Each mutation request assembles a
// per-request obs::Metrics instance (service.* counters + recolor
// wall) and absorbs it into Metrics::global(), so a server exports
// per-request accounting with the same registry the engine publishes
// into. The embedded SolverOptions carry the engine ExecutionPolicy:
// recolors ride kAuto backend resolution and the MPC substrate exactly
// like one-shot solves.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "pdc/d1lc/solver.hpp"
#include "pdc/service/dynamic_graph.hpp"
#include "pdc/service/region_cache.hpp"
#include "pdc/service/snapshot.hpp"

namespace pdc::service {

/// Sentinel for ServiceConfig::compaction_slack: never compact.
inline constexpr std::size_t kCompactionDisabled =
    static_cast<std::size_t>(-1);

struct ServiceConfig {
  /// Pipeline options for every recolor and re-solve, including the
  /// engine ExecutionPolicy (backend / cluster / search options) and
  /// the Lemma-10 strategy.
  d1lc::SolverOptions solver;
  /// Damaged regions larger than this fraction of the live graph fall
  /// back to a full re-solve (0 forces full, 1 never falls back).
  double full_resolve_fraction = 0.25;
  /// Region-cache entries (0 disables the cache).
  std::size_t cache_capacity = 1024;
  /// Palette compaction trigger: after a batch commits, if the
  /// published colors_used exceeds (max live degree + 1) by more than
  /// this slack, the writer remaps stranded colors into the dense
  /// range, shrinks palettes to degree+1, and republishes.
  /// kCompactionDisabled turns the pass off.
  std::size_t compaction_slack = 64;
};

struct ServiceStats {
  std::uint64_t requests = 0;  // queries + mutation batches
  std::uint64_t queries = 0;
  std::uint64_t mutations = 0;  // individual mutations accepted
  std::uint64_t batches = 0;    // mutation batches applied
  std::uint64_t incremental_recolors = 0;
  std::uint64_t full_resolves = 0;
  std::uint64_t damaged_nodes = 0;    // total across batches
  std::uint64_t recolored_nodes = 0;  // total actually re-solved
  double recolor_ms = 0.0;  // incremental region solves
  double full_ms = 0.0;     // full re-solves (incl. the initial one)
  std::uint64_t snapshot_publishes = 0;
  std::uint64_t snapshot_chunks_rebuilt = 0;
  std::uint64_t snapshot_chunks_reused = 0;
  std::uint64_t snapshot_publish_bytes = 0;  // written into new leaves
  std::uint64_t compactions = 0;  // palette compaction passes
  RegionCacheStats cache;   // mirrored from the RegionCache
  /// Aggregate engine accounting across every recolor's seed searches.
  engine::SearchStats seed_search;
};

enum class MutationKind : std::uint8_t {
  kInsertVertex,
  kDeleteVertex,
  kInsertEdge,
  kDeleteEdge,
};

struct Mutation {
  MutationKind kind = MutationKind::kInsertEdge;
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;

  static Mutation insert_vertex() { return {MutationKind::kInsertVertex}; }
  static Mutation delete_vertex(NodeId v) {
    return {MutationKind::kDeleteVertex, v};
  }
  static Mutation insert_edge(NodeId u, NodeId v) {
    return {MutationKind::kInsertEdge, u, v};
  }
  static Mutation delete_edge(NodeId u, NodeId v) {
    return {MutationKind::kDeleteEdge, u, v};
  }
};

struct MutationResult {
  std::uint64_t request_id = 0;
  /// Ids assigned to the batch's vertex inserts (ascending).
  std::vector<NodeId> new_vertices;
  std::uint64_t applied = 0;  // mutations that changed the graph
  std::uint64_t damaged = 0;  // damaged-region size
  bool full_resolve = false;
  bool cache_hit = false;     // region served from the RegionCache
  /// Post-batch invariant (validate_partial over the damaged region;
  /// full check after a fallback re-solve).
  bool valid = false;
  /// Commit sequence number of this batch (1-based, monotone). Every
  /// snapshot loaded after apply_batch returns carries
  /// snapshot->batch_seq >= this — the read-your-writes anchor.
  std::uint64_t batch_seq = 0;
  /// Epoch of the snapshot published for this batch (after any
  /// compaction republish).
  std::uint64_t epoch = 0;
  /// The batch triggered a palette compaction pass.
  bool compacted = false;
};

class ColoringService {
 public:
  /// Loads the instance and performs the initial full solve.
  explicit ColoringService(const D1lcInstance& base, ServiceConfig cfg = {});
  /// Degree+1 palettes over `g`.
  explicit ColoringService(const Graph& g, ServiceConfig cfg = {});
  /// Warm start: adopt an existing proper coloring (checked) instead of
  /// solving — resuming a persisted service state.
  ColoringService(const D1lcInstance& base, Coloring initial,
                  ServiceConfig cfg = {});

  // --- Queries (front door: counted, span-tagged per request). ---
  // Lock-free: each call binds to the latest published snapshot and is
  // safe to run from any number of threads concurrently with a writer.
  Color query_color(NodeId v);
  std::vector<Color> query_colors(std::span<const NodeId> nodes);
  /// Colors of v and its live neighborhood (subgraph coloring lookup).
  std::vector<std::pair<NodeId, Color>> query_neighborhood(NodeId v);
  /// Full invariant check: complete + proper + palette membership over
  /// the live graph (as of one snapshot).
  bool query_validate();
  std::uint64_t query_colors_used();

  /// The latest published snapshot (never blocks on the writer's batch
  /// lock or an in-flight recolor — see SnapshotCell). Hold it to
  /// answer many reads from one consistent state.
  std::shared_ptr<const ColoringSnapshot> snapshot() const {
    return published_.load();
  }

  // --- Mutations (single writer; serialized internally). ---
  MutationResult apply(const Mutation& m) { return apply_batch({&m, 1}); }
  MutationResult apply_batch(std::span<const Mutation> batch);

  // --- Direct state access (no request accounting, no
  // synchronization: writer-thread or quiesced use only). ---
  const DynamicGraph& graph() const { return graph_; }
  bool alive(NodeId v) const { return graph_.alive(v); }
  Color color_of(NodeId v) const {
    PDC_CHECK_MSG(graph_.alive(v), "query for dead or unknown id " << v);
    return colors_[v];
  }
  std::span<const Color> colors() const { return colors_; }
  std::span<const Color> palette_of(NodeId v) const { return palettes_[v]; }
  const ServiceStats& stats() const;
  const ServiceConfig& config() const { return cfg_; }

  /// The current live instance as an immutable snapshot: a region
  /// instance over every alive node (compacted local ids plus the
  /// to_parent map) — what a fallback re-solve solves.
  d1lc::RegionInstance snapshot_instance() const;

 private:
  void init_palettes_degree_plus_one();
  void adopt_instance(const D1lcInstance& base);
  /// Extends v's palette with the smallest absent colors to deg(v)+1.
  void grow_palette(NodeId v);
  /// Uncolors + re-solves `region` (sorted) against the fixed exterior;
  /// fills MutationResult recolor fields.
  void recolor_region(std::vector<NodeId> region, MutationResult& out);
  void full_resolve(MutationResult* out);
  /// Builds + atomically publishes a snapshot of the current writer
  /// state (requires exclusive access: under write_mu_ or during
  /// construction). Consumes dirty_/dirty_full_.
  void publish_snapshot(const char* mode, std::uint64_t batch_seq,
                        MutationResult* out);
  /// Compacts stranded colors when the published census exceeds the
  /// slack; republishes on change.
  void maybe_compact(MutationResult& out);
  std::uint64_t compact_palettes();
  void mark_dirty(NodeId v) { dirty_.push_back(v); }

  ServiceConfig cfg_;
  DynamicGraph graph_;
  std::vector<std::vector<Color>> palettes_;  // sorted; grow-only
                                              // between compactions
  Coloring colors_;
  RegionCache cache_;
  mutable ServiceStats stats_;
  std::atomic<std::uint64_t> next_request_{0};
  mutable std::atomic<std::uint64_t> read_queries_{0};

  // Writer-side publication state (all guarded by write_mu_ except the
  // publication cell itself).
  mutable std::mutex write_mu_;
  SnapshotCell published_;
  std::vector<NodeId> dirty_;  // nodes touched since the last publish
  bool dirty_full_ = false;    // force a full leaf rebuild + recount
  SnapshotCensus census_;      // describes the last published snapshot
  std::uint64_t last_batch_seq_ = 0;
};

}  // namespace pdc::service
