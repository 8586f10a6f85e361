#include "pdc/service/snapshot.hpp"

#include <algorithm>

namespace pdc::service {

void SnapshotCensus::clear() {
  color_count_.clear();
  degree_count_.clear();
  colors_used_ = 0;
  max_degree_ = 0;
}

void SnapshotCensus::add(Color c, std::uint32_t degree) {
  if (c != kNoColor && color_count_[c]++ == 0) ++colors_used_;
  if (degree >= degree_count_.size()) degree_count_.resize(degree + 1u, 0);
  ++degree_count_[degree];
  max_degree_ = std::max(max_degree_, degree);
}

void SnapshotCensus::remove(Color c, std::uint32_t degree) {
  if (c != kNoColor) {
    const auto it = color_count_.find(c);
    PDC_CHECK(it != color_count_.end() && it->second > 0);
    if (--it->second == 0) --colors_used_;
  }
  PDC_CHECK(degree < degree_count_.size() && degree_count_[degree] > 0);
  --degree_count_[degree];
  while (max_degree_ > 0 && degree_count_[max_degree_] == 0) --max_degree_;
}

namespace {

using LeafOffsets = std::array<std::uint32_t, kSnapshotChunkNodes + 1>;

/// Appends rows [i, j) of `from` to `to` in one copy; to_off[i] must
/// already be to.size().
template <class T>
void copy_rows(const std::vector<T>& from, const LeafOffsets& from_off,
               std::vector<T>& to, LeafOffsets& to_off, NodeId i, NodeId j) {
  to.insert(to.end(), from.begin() + from_off[i], from.begin() + from_off[j]);
  for (NodeId k = i; k < j; ++k)
    to_off[k + 1] = from_off[k + 1] - from_off[i] + to_off[i];
}

/// Builds leaf nodes [base, base + count). The first `old_count` of
/// them exist in `old`; of those, only the ones in `dirty` (sorted, all
/// inside the leaf) changed. Changed and new nodes are read from the
/// writer's state and moved in the census; runs of unchanged nodes
/// copy their rows from `old` in one piece.
std::shared_ptr<const SnapshotChunk> build_chunk(
    const DynamicGraph& g, const std::vector<std::vector<Color>>& palettes,
    std::span<const Color> colors, NodeId base, NodeId count,
    const SnapshotChunk* old, NodeId old_count, std::span<const NodeId> dirty,
    SnapshotCensus& census, SnapshotBuildStats& stats) {
  std::uint64_t fresh =
      old_count < kSnapshotChunkNodes ? ~std::uint64_t{0} << old_count : 0;
  for (const NodeId v : dirty) fresh |= std::uint64_t{1} << (v - base);
  auto is_fresh = [&](NodeId i) { return ((fresh >> i) & 1u) != 0; };

  // Exact sizes: the old leaf's rows, with each fresh node's old row
  // swapped for its current one.
  std::size_t adj_size = old != nullptr ? old->adjacency.size() : 0;
  std::size_t pal_size = old != nullptr ? old->pal_colors.size() : 0;
  for (NodeId i = 0; i < count; ++i) {
    if (!is_fresh(i)) continue;
    if (i < old_count) {
      adj_size -= old->degree_at(i);
      pal_size -= old->palette_at(i).size();
    }
    adj_size += g.degree(base + i);
    pal_size += palettes[base + i].size();
  }

  auto ch = std::make_shared<SnapshotChunk>();
  ch->adjacency.reserve(adj_size);
  ch->pal_colors.reserve(pal_size);
  if (old != nullptr) {
    ch->alive = old->alive;
    ch->colors = old->colors;
  }
  NodeId i = 0;
  while (i < count) {
    if (!is_fresh(i)) {
      NodeId j = i + 1;
      while (j < count && !is_fresh(j)) ++j;
      copy_rows(old->adjacency, old->offsets, ch->adjacency, ch->offsets, i, j);
      copy_rows(old->pal_colors, old->pal_offsets, ch->pal_colors,
                ch->pal_offsets, i, j);
      i = j;
      continue;
    }
    const NodeId v = base + i;
    if (i < old_count && old->alive_at(i))
      census.remove(old->colors[i], old->degree_at(i));
    const auto nb = g.neighbors(v);
    const auto& pal = palettes[v];
    const bool live = g.alive(v);
    const std::uint64_t bit = std::uint64_t{1} << i;
    ch->alive = live ? ch->alive | bit : ch->alive & ~bit;
    ch->colors[i] = colors[v];
    if (live) census.add(colors[v], static_cast<std::uint32_t>(nb.size()));
    ch->adjacency.insert(ch->adjacency.end(), nb.begin(), nb.end());
    ch->offsets[i + 1] = static_cast<std::uint32_t>(ch->adjacency.size());
    ch->pal_colors.insert(ch->pal_colors.end(), pal.begin(), pal.end());
    ch->pal_offsets[i + 1] = static_cast<std::uint32_t>(ch->pal_colors.size());
    ++i;
  }
  stats.publish_bytes += sizeof(SnapshotChunk) +
                         adj_size * sizeof(NodeId) + pal_size * sizeof(Color);
  return ch;
}

}  // namespace

bool ColoringSnapshot::validate() const {
  for (NodeId v = 0; v < capacity; ++v) {
    if (!alive(v)) continue;
    const Color c = color(v);
    if (c == kNoColor) return false;
    const auto pal = palette(v);
    if (!std::binary_search(pal.begin(), pal.end(), c)) return false;
    for (const NodeId u : neighbors(v)) {
      if (color(u) == c) return false;
    }
  }
  return true;
}

std::shared_ptr<const ColoringSnapshot> build_snapshot(
    const DynamicGraph& g, const std::vector<std::vector<Color>>& palettes,
    std::span<const Color> colors, std::uint64_t epoch,
    std::uint64_t batch_seq, const ColoringSnapshot* prev,
    std::span<const NodeId> dirty, SnapshotCensus& census,
    SnapshotBuildStats* stats) {
  auto snap = std::make_shared<ColoringSnapshot>();
  snap->epoch = epoch;
  snap->batch_seq = batch_seq;
  snap->capacity = g.capacity();
  snap->num_alive = g.num_alive();
  snap->num_edges = g.num_edges();

  const std::size_t num_chunks =
      (static_cast<std::size_t>(snap->capacity) + kSnapshotChunkNodes - 1) >>
      kSnapshotChunkShift;
  snap->chunks.reserve(num_chunks);
  // Ids are append-only, so the previous snapshot holds a prefix of
  // the id space; everything past it is new and read from the writer.
  const NodeId prev_capacity = prev != nullptr ? prev->capacity : 0;
  PDC_CHECK(prev_capacity <= snap->capacity);
  if (prev == nullptr) census.clear();

  SnapshotBuildStats bs;
  auto d = dirty.begin();
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const NodeId base = static_cast<NodeId>(c << kSnapshotChunkShift);
    const NodeId count = std::min(kSnapshotChunkNodes,
                                  static_cast<NodeId>(snap->capacity - base));
    const auto d_end = std::find_if(
        d, dirty.end(), [&](NodeId v) { return v >= base + count; });
    const NodeId old_count =
        prev_capacity > base ? std::min(count, prev_capacity - base) : 0;
    if (d == d_end && old_count == count) {
      snap->chunks.push_back(prev->chunks[c]);
      ++bs.chunks_reused;
    } else {
      snap->chunks.push_back(build_chunk(
          g, palettes, colors, base, count,
          old_count > 0 ? prev->chunks[c].get() : nullptr, old_count,
          {d, d_end}, census, bs));
      ++bs.chunks_rebuilt;
    }
    d = d_end;
  }

  snap->colors_used = census.colors_used();
  snap->max_degree = census.max_degree();
  if (stats != nullptr) *stats = bs;
  return snap;
}

}  // namespace pdc::service
