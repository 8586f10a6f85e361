#pragma once
// Immutable, atomically published view of a ColoringService's state —
// the lock-free read path. The writer builds a ColoringSnapshot after
// every committed batch (and after every palette compaction) and
// publishes it through a SnapshotCell (an atomic shared_ptr slot — see
// below for why not std::atomic<std::shared_ptr>); readers load the
// latest pointer and answer every query from the frozen arrays without
// ever taking the writer's batch lock. A held snapshot stays internally
// consistent forever: colors, adjacency, palettes and the colors_used
// census all describe the same committed state, so a reader that
// grabbed epoch E mid-recolor sees the complete proper coloring of
// epoch E, never a torn mix.
//
// Snapshots are split into leaves so publishes are incremental: the id
// space is cut into kSnapshotChunkNodes-node leaves (64 nodes), each an
// immutable CSR slice (alive bits, colors, adjacency and flat palettes)
// held in one flat table of shared_ptrs. A publish rebuilds only the
// leaves that hold a node the batch touched and shares every other leaf
// with the previous snapshot by pointer. A rebuilt leaf copies its clean
// nodes' rows from the previous leaf and reads the writer's scattered
// per-node vectors only for the dirty nodes, so a publish writes about
// what the batch touched (reported as publish_bytes). The snapshot's
// colors_used and max_degree come from a SnapshotCensus the writer keeps
// across publishes: each dirty node leaves its old (alive, color,
// degree) bucket and joins its new one, and only a full build recounts.
//
// Sequencing: `epoch` increments on every publish; `batch_seq` is the
// commit sequence number of the last batch the snapshot contains.
// Publishes are monotone in both, which is what gives sessions
// read-your-writes: any snapshot loaded after a flush returned carries
// batch_seq >= that flush's sequence number.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "pdc/graph/coloring.hpp"
#include "pdc/service/dynamic_graph.hpp"

namespace pdc::service {

/// Nodes per snapshot leaf (power of two; leaf index = v >> shift). A
/// leaf's alive flags are one 64-bit word, so this is at most 64.
inline constexpr unsigned kSnapshotChunkShift = 6;
inline constexpr NodeId kSnapshotChunkNodes = NodeId{1} << kSnapshotChunkShift;
inline constexpr NodeId kSnapshotChunkMask = kSnapshotChunkNodes - 1;
static_assert(kSnapshotChunkNodes <= 64);

/// One immutable leaf: nodes [c * kSnapshotChunkNodes, +count) of the
/// id space. The per-node columns are inline, so a lookup of alive +
/// color costs the table slot, the leaf and one word of it. Never
/// mutated after construction; shared between consecutive snapshots
/// whenever no node inside it changed. make_shared puts the refcount
/// in front of the leaf and every publish writes it, so the columns a
/// color lookup reads come last, off the refcount's cache line.
struct SnapshotChunk {
  std::vector<NodeId> adjacency;
  std::vector<Color> pal_colors;  // sorted per node
  std::array<std::uint32_t, kSnapshotChunkNodes + 1> offsets{};  // adjacency
  std::array<std::uint32_t, kSnapshotChunkNodes + 1> pal_offsets{};
  std::uint64_t alive = 0;  // bit i: the leaf's i-th node is alive
  std::array<Color, kSnapshotChunkNodes> colors;  // kNoColor for dead nodes

  SnapshotChunk() { colors.fill(kNoColor); }
  bool alive_at(NodeId i) const { return ((alive >> i) & 1u) != 0; }
  std::uint32_t degree_at(NodeId i) const {
    return offsets[i + 1] - offsets[i];
  }
  std::span<const NodeId> neighbors_at(NodeId i) const {
    return {adjacency.data() + offsets[i], degree_at(i)};
  }
  std::span<const Color> palette_at(NodeId i) const {
    return {pal_colors.data() + pal_offsets[i],
            pal_offsets[i + 1] - pal_offsets[i]};
  }
};

/// Per-publish accounting (mirrored into ServiceStats and the
/// service.snapshot.* metrics). The chunk counters count leaves.
struct SnapshotBuildStats {
  std::uint64_t chunks_rebuilt = 0;
  std::uint64_t chunks_reused = 0;
  std::uint64_t publish_bytes = 0;  // written into rebuilt leaves
};

/// Live-node census behind ColoringSnapshot::colors_used and
/// max_degree, kept by the writer across publishes. build_snapshot
/// moves each dirty node from its old bucket to its new one, and
/// clears and refills the census on a full build. Colors are 64-bit
/// and may be sparse, so the color counts are hashed; degrees are
/// below the node count.
class SnapshotCensus {
 public:
  void clear();
  void add(Color c, std::uint32_t degree);
  void remove(Color c, std::uint32_t degree);
  std::uint64_t colors_used() const { return colors_used_; }
  std::uint32_t max_degree() const { return max_degree_; }

 private:
  std::unordered_map<Color, NodeId> color_count_;  // live nodes per color
  std::vector<NodeId> degree_count_;               // live nodes per degree
  std::uint64_t colors_used_ = 0;  // colors with a nonzero count
  std::uint32_t max_degree_ = 0;
};

struct ColoringSnapshot {
  std::uint64_t epoch = 0;      // publish sequence (1 = initial solve)
  std::uint64_t batch_seq = 0;  // last committed batch (0 = none yet)
  NodeId capacity = 0;          // full id space, alive + dead
  NodeId num_alive = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t colors_used = 0;   // distinct colors over live nodes
  std::uint32_t max_degree = 0;    // over live nodes
  std::vector<std::shared_ptr<const SnapshotChunk>> chunks;  // the leaves

  bool alive(NodeId v) const {
    return v < capacity && chunk_of(v).alive_at(v & kSnapshotChunkMask);
  }
  Color color(NodeId v) const {
    PDC_ASSERT(v < capacity);
    return chunk_of(v).colors[v & kSnapshotChunkMask];
  }
  std::uint32_t degree(NodeId v) const {
    PDC_ASSERT(v < capacity);
    return chunk_of(v).degree_at(v & kSnapshotChunkMask);
  }
  std::span<const NodeId> neighbors(NodeId v) const {
    PDC_ASSERT(v < capacity);
    return chunk_of(v).neighbors_at(v & kSnapshotChunkMask);
  }
  std::span<const Color> palette(NodeId v) const {
    PDC_ASSERT(v < capacity);
    return chunk_of(v).palette_at(v & kSnapshotChunkMask);
  }

  /// Full invariant over the snapshot: every live node colored, within
  /// its palette, and conflict-free against its live neighbors. A
  /// published snapshot always passes — this is what "readers observe
  /// some complete proper coloring" means operationally.
  bool validate() const;

 private:
  const SnapshotChunk& chunk_of(NodeId v) const {
    return *chunks[v >> kSnapshotChunkShift];
  }
};

/// The publication point: one shared_ptr slot with atomic load/store.
///
/// This is deliberately NOT std::atomic<std::shared_ptr<T>>. libstdc++'s
/// _Sp_atomic releases its internal lock bit with a *relaxed* fetch_sub
/// on the load path (shared_ptr_atomic.h, load() -> unlock(relaxed)), so
/// formally there is no happens-before edge from a reader's _M_ptr read
/// to the writer's next locked _M_ptr write — a data race under the C++
/// memory model that ThreadSanitizer reports on the concurrency suite.
/// This cell implements the same protocol (the control word doubles as a
/// spin guard, held only for a pointer copy or swap) with release
/// ordering on BOTH unlock paths, which makes it TSan-clean and keeps
/// the guarantee the service documents: readers never wait on the
/// writer's batch lock or on an in-flight recolor, only (rarely) on
/// another pointer handoff a few instructions long. The displaced
/// snapshot's refcount drop happens outside the guard, so a reader can
/// never pay for a leaf teardown.
class SnapshotCell {
 public:
  SnapshotCell() = default;
  SnapshotCell(const SnapshotCell&) = delete;
  SnapshotCell& operator=(const SnapshotCell&) = delete;

  std::shared_ptr<const ColoringSnapshot> load() const {
    lock();
    std::shared_ptr<const ColoringSnapshot> out = ptr_;
    unlock();
    return out;
  }

  void store(std::shared_ptr<const ColoringSnapshot> next) {
    lock();
    ptr_.swap(next);
    unlock();
    // `next` now holds the displaced snapshot; it dies here, after the
    // guard is released.
  }

 private:
  void lock() const {
    while (guard_.exchange(true, std::memory_order_acquire)) {
      while (guard_.load(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() const { guard_.store(false, std::memory_order_release); }

  mutable std::atomic<bool> guard_{false};
  std::shared_ptr<const ColoringSnapshot> ptr_;
};

/// Builds the snapshot for the writer's current state. When `prev` is
/// non-null, leaves containing no node in `dirty` (sorted, deduped) are
/// shared from it, dirty leaves copy their clean rows from it, and
/// `census` (which must describe `prev`) is updated from the dirty
/// nodes. Pass prev == nullptr to force a full rebuild and recount
/// (first publish, full re-solve, palette compaction).
std::shared_ptr<const ColoringSnapshot> build_snapshot(
    const DynamicGraph& g, const std::vector<std::vector<Color>>& palettes,
    std::span<const Color> colors, std::uint64_t epoch,
    std::uint64_t batch_seq, const ColoringSnapshot* prev,
    std::span<const NodeId> dirty, SnapshotCensus& census,
    SnapshotBuildStats* stats);

}  // namespace pdc::service
