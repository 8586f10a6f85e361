#include "pdc/service/service.hpp"

#include <algorithm>
#include <utility>

#include "pdc/graph/coloring.hpp"
#include "pdc/obs/obs.hpp"
#include "pdc/util/timer.hpp"

namespace pdc::service {

namespace {

obs::Labels service_labels() {
  return obs::Labels{.phase = "service", .route = {}, .plane = {},
                     .backend = {}};
}

/// Per-request metrics, assembled locally and absorbed into the global
/// registry in one shot — the server-side publication discipline.
/// Queries run from arbitrary reader threads; absorb() is thread-safe.
void publish_query_metrics(std::uint64_t epoch, double wall_ms) {
  obs::Metrics m;
  const obs::Labels l = service_labels();
  m.add("service.requests", l, 1);
  m.add("service.queries", l, 1);
  m.add("service.snapshot.reads", l, 1);
  m.gauge_max("service.snapshot.read_epoch", l, epoch);
  m.add_real("service.request_ms", l, wall_ms);
  obs::Metrics::global().absorb(m);
}

void publish_mutation_metrics(const MutationResult& r, std::uint64_t batch,
                              double wall_ms) {
  if (!obs::metrics_enabled()) return;
  obs::Metrics m;
  const obs::Labels l = service_labels();
  m.add("service.requests", l, 1);
  m.add("service.batches", l, 1);
  m.add("service.mutations", l, batch);
  m.add("service.mutations_applied", l, r.applied);
  m.add("service.damaged_nodes", l, r.damaged);
  if (r.damaged > 0) {
    m.add(r.full_resolve ? "service.full_resolves"
                         : "service.incremental_recolors",
          l, 1);
    m.add(r.cache_hit ? "service.cache_hits" : "service.cache_misses", l, 1);
  }
  if (r.compacted) m.add("service.compactions", l, 1);
  m.add_real("service.request_ms", l, wall_ms);
  obs::Metrics::global().absorb(m);
}

void publish_snapshot_metrics(std::uint64_t epoch,
                              const SnapshotBuildStats& bs) {
  if (!obs::metrics_enabled()) return;
  obs::Metrics m;
  const obs::Labels l = service_labels();
  m.add("service.snapshot.publishes", l, 1);
  m.add("service.snapshot.chunks_rebuilt", l, bs.chunks_rebuilt);
  m.add("service.snapshot.chunks_reused", l, bs.chunks_reused);
  m.add("service.snapshot.publish_bytes", l, bs.publish_bytes);
  m.gauge_max("service.snapshot.epoch", l, epoch);
  obs::Metrics::global().absorb(m);
}

}  // namespace

ColoringService::ColoringService(const D1lcInstance& base, ServiceConfig cfg)
    : cfg_(std::move(cfg)), cache_(cfg_.cache_capacity) {
  adopt_instance(base);
  full_resolve(nullptr);
  publish_snapshot("initial", 0, nullptr);
}

ColoringService::ColoringService(const Graph& g, ServiceConfig cfg)
    : cfg_(std::move(cfg)), cache_(cfg_.cache_capacity) {
  graph_ = DynamicGraph(g);
  colors_.assign(graph_.capacity(), kNoColor);
  init_palettes_degree_plus_one();
  full_resolve(nullptr);
  publish_snapshot("initial", 0, nullptr);
}

ColoringService::ColoringService(const D1lcInstance& base, Coloring initial,
                                 ServiceConfig cfg)
    : cfg_(std::move(cfg)), cache_(cfg_.cache_capacity) {
  adopt_instance(base);
  PDC_CHECK_MSG(is_proper_coloring(base, initial),
                "warm-start coloring is not complete and proper");
  colors_ = std::move(initial);
  dirty_full_ = true;
  publish_snapshot("initial", 0, nullptr);
}

void ColoringService::adopt_instance(const D1lcInstance& base) {
  PDC_CHECK_MSG(base.valid(), "service input is not a valid D1LC instance");
  graph_ = DynamicGraph(base.graph);
  colors_.assign(graph_.capacity(), kNoColor);
  palettes_.resize(graph_.capacity());
  for (NodeId v = 0; v < graph_.capacity(); ++v) {
    auto pal = base.palettes.palette(v);
    palettes_[v].assign(pal.begin(), pal.end());
  }
}

void ColoringService::init_palettes_degree_plus_one() {
  palettes_.assign(graph_.capacity(), {});
  for (NodeId v = 0; v < graph_.capacity(); ++v) grow_palette(v);
}

void ColoringService::grow_palette(NodeId v) {
  std::vector<Color>& pal = palettes_[v];
  const std::size_t need = static_cast<std::size_t>(graph_.degree(v)) + 1;
  // Insert the smallest absent colors, keeping the list sorted. One
  // merge-style walk: candidate c climbs past present colors.
  std::size_t i = 0;
  Color c = 0;
  while (pal.size() < need) {
    if (i < pal.size() && pal[i] <= c) {
      if (pal[i] == c) ++c;
      ++i;
      continue;
    }
    pal.insert(pal.begin() + static_cast<std::ptrdiff_t>(i), c);
    ++i;
    ++c;
  }
}

const ServiceStats& ColoringService::stats() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  stats_.cache = cache_.stats();
  stats_.queries = read_queries_.load(std::memory_order_relaxed);
  stats_.requests = stats_.queries + stats_.batches;
  return stats_;
}

d1lc::RegionInstance ColoringService::snapshot_instance() const {
  std::vector<NodeId> live;
  live.reserve(graph_.num_alive());
  for (NodeId v = 0; v < graph_.capacity(); ++v)
    if (graph_.alive(v)) live.push_back(v);
  const Coloring none(graph_.capacity(), kNoColor);
  return d1lc::build_region_instance(
      graph_, [&](NodeId v) { return std::span<const Color>(palettes_[v]); },
      none, live);
}

// ---------------------------------------------------------------------
// Queries — lock-free against the published snapshot
// ---------------------------------------------------------------------

namespace {
struct QueryScope {
  obs::Span span;
  std::uint64_t start_us = 0;
  std::uint64_t epoch = 0;
  explicit QueryScope(std::uint64_t request_id, const char* kind)
      : span("service.request", obs::SpanKind::kPhase) {
    if (obs::metrics_enabled()) start_us = Timer::now_us();
    if (span.active()) {
      span.tag_u64("request_id", request_id);
      span.tag("kind", kind);
    }
  }
  void observe(const ColoringSnapshot& s) {
    epoch = s.epoch;
    if (span.active()) span.tag_u64("epoch", s.epoch);
  }
  ~QueryScope() {
    if (!obs::metrics_enabled()) return;
    publish_query_metrics(
        epoch, static_cast<double>(Timer::now_us() - start_us) / 1000.0);
  }
};
}  // namespace

Color ColoringService::query_color(NodeId v) {
  QueryScope scope(next_request_.fetch_add(1, std::memory_order_relaxed),
                   "color");
  read_queries_.fetch_add(1, std::memory_order_relaxed);
  const auto snap = snapshot();
  scope.observe(*snap);
  PDC_CHECK_MSG(snap->alive(v), "query for dead or unknown id " << v);
  return snap->color(v);
}

std::vector<Color> ColoringService::query_colors(
    std::span<const NodeId> nodes) {
  QueryScope scope(next_request_.fetch_add(1, std::memory_order_relaxed),
                   "colors");
  read_queries_.fetch_add(1, std::memory_order_relaxed);
  const auto snap = snapshot();
  scope.observe(*snap);
  std::vector<Color> out;
  out.reserve(nodes.size());
  for (NodeId v : nodes) {
    PDC_CHECK_MSG(snap->alive(v), "query for dead or unknown id " << v);
    out.push_back(snap->color(v));
  }
  return out;
}

std::vector<std::pair<NodeId, Color>> ColoringService::query_neighborhood(
    NodeId v) {
  QueryScope scope(next_request_.fetch_add(1, std::memory_order_relaxed),
                   "neighborhood");
  read_queries_.fetch_add(1, std::memory_order_relaxed);
  const auto snap = snapshot();
  scope.observe(*snap);
  PDC_CHECK_MSG(snap->alive(v), "query for dead or unknown id " << v);
  std::vector<std::pair<NodeId, Color>> out;
  const auto nb = snap->neighbors(v);
  out.reserve(nb.size() + 1u);
  out.emplace_back(v, snap->color(v));
  for (NodeId u : nb) out.emplace_back(u, snap->color(u));
  return out;
}

bool ColoringService::query_validate() {
  QueryScope scope(next_request_.fetch_add(1, std::memory_order_relaxed),
                   "validate");
  read_queries_.fetch_add(1, std::memory_order_relaxed);
  const auto snap = snapshot();
  scope.observe(*snap);
  return snap->validate();
}

std::uint64_t ColoringService::query_colors_used() {
  QueryScope scope(next_request_.fetch_add(1, std::memory_order_relaxed),
                   "colors-used");
  read_queries_.fetch_add(1, std::memory_order_relaxed);
  const auto snap = snapshot();
  scope.observe(*snap);
  return snap->colors_used;
}

// ---------------------------------------------------------------------
// Snapshot publication + palette compaction (writer side)
// ---------------------------------------------------------------------

void ColoringService::publish_snapshot(const char* mode,
                                       std::uint64_t batch_seq,
                                       MutationResult* out) {
  obs::Span span("service.snapshot.publish");
  const auto prev = published_.load();
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  SnapshotBuildStats bs;
  auto snap = build_snapshot(graph_, palettes_, colors_,
                             (prev ? prev->epoch : 0) + 1, batch_seq,
                             dirty_full_ ? nullptr : prev.get(), dirty_,
                             census_, &bs);
  published_.store(snap);
  dirty_.clear();
  dirty_full_ = false;
  ++stats_.snapshot_publishes;
  stats_.snapshot_chunks_rebuilt += bs.chunks_rebuilt;
  stats_.snapshot_chunks_reused += bs.chunks_reused;
  stats_.snapshot_publish_bytes += bs.publish_bytes;
  if (out != nullptr) out->epoch = snap->epoch;
  if (span.active()) {
    span.tag("mode", mode);
    span.tag_u64("epoch", snap->epoch);
    span.tag_u64("batch_seq", batch_seq);
    span.tag_u64("rebuilt", bs.chunks_rebuilt);
    span.tag_u64("reused", bs.chunks_reused);
    span.tag_u64("bytes", bs.publish_bytes);
    span.tag_u64("colors_used", snap->colors_used);
  }
  publish_snapshot_metrics(snap->epoch, bs);
}

std::uint64_t ColoringService::compact_palettes() {
  const NodeId cap = graph_.capacity();
  std::uint32_t maxdeg = 0;
  for (NodeId v = 0; v < cap; ++v)
    if (graph_.alive(v)) maxdeg = std::max(maxdeg, graph_.degree(v));
  const Color cutoff = static_cast<Color>(maxdeg) + 1;
  // Greedy dense remap: every live node holding a stranded color
  // (>= max degree + 1) moves to the smallest color in 0..deg(v) its
  // current neighborhood leaves free — one always exists, and each
  // step preserves properness against the colors as they stand, so
  // the final coloring is proper with every color < cutoff.
  std::uint64_t remapped = 0;
  std::vector<char> used;
  for (NodeId v = 0; v < cap; ++v) {
    if (!graph_.alive(v) || colors_[v] < cutoff) continue;
    const std::uint32_t deg = graph_.degree(v);
    used.assign(static_cast<std::size_t>(deg) + 1, 0);
    for (NodeId u : graph_.neighbors(v)) {
      const Color cu = colors_[u];
      if (cu >= 0 && cu <= static_cast<Color>(deg))
        used[static_cast<std::size_t>(cu)] = 1;
    }
    Color c = 0;
    while (used[static_cast<std::size_t>(c)] != 0) ++c;
    colors_[v] = c;
    ++remapped;
  }
  // Shrink every live palette back to exactly degree+1: the held color
  // plus the smallest absent ones. Cached region solutions were keyed
  // on the old palettes; drop them rather than let stale shapes churn
  // the validation path.
  for (NodeId v = 0; v < cap; ++v) {
    if (!graph_.alive(v)) continue;
    palettes_[v].assign(1, colors_[v]);
    grow_palette(v);
  }
  cache_.clear();
  dirty_full_ = true;
  return remapped;
}

void ColoringService::maybe_compact(MutationResult& out) {
  if (cfg_.compaction_slack == kCompactionDisabled) return;
  const auto snap = published_.load();
  const std::uint64_t budget = static_cast<std::uint64_t>(snap->max_degree) +
                               1 + cfg_.compaction_slack;
  if (snap->colors_used <= budget) return;
  obs::Span span("service.compact");
  if (span.active()) {
    span.tag_u64("request_id", out.request_id);
    span.tag_u64("colors_used_before", snap->colors_used);
    span.tag_u64("max_degree", snap->max_degree);
  }
  const std::uint64_t remapped = compact_palettes();
  ++stats_.compactions;
  out.compacted = true;
  publish_snapshot("compact", out.batch_seq, &out);
  PDC_CHECK_MSG(published_.load()->validate(),
                "palette compaction published an improper coloring");
  if (span.active()) {
    span.tag_u64("remapped", remapped);
    span.tag_u64("colors_used_after", published_.load()->colors_used);
  }
}

// ---------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------

MutationResult ColoringService::apply_batch(std::span<const Mutation> batch) {
  std::lock_guard<std::mutex> lock(write_mu_);
  const std::uint64_t rid =
      next_request_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t start_us = Timer::now_us();
  obs::Span req("service.request", obs::SpanKind::kPhase);
  if (req.active()) {
    req.tag_u64("request_id", rid);
    req.tag("kind", "mutation-batch");
  }
  obs::Span bspan("service.batch");
  if (bspan.active()) {
    bspan.tag_u64("request_id", rid);
    bspan.tag_u64("mutations", batch.size());
  }

  MutationResult out;
  out.request_id = rid;
  ++stats_.batches;
  stats_.mutations += batch.size();

  // Canonicalize: a batch is a set. Vertex inserts land first (ids
  // capacity()..capacity()+k-1), then edge inserts, edge deletes, and
  // vertex deletes — each class deduplicated — so any arrival order of
  // the same multiset produces the same state and the same coloring.
  std::size_t vertex_inserts = 0;
  std::vector<std::pair<NodeId, NodeId>> edge_inserts, edge_deletes;
  std::vector<NodeId> vertex_deletes;
  for (const Mutation& mu : batch) {
    switch (mu.kind) {
      case MutationKind::kInsertVertex:
        ++vertex_inserts;
        break;
      case MutationKind::kDeleteVertex:
        vertex_deletes.push_back(mu.u);
        break;
      case MutationKind::kInsertEdge:
        edge_inserts.emplace_back(std::min(mu.u, mu.v), std::max(mu.u, mu.v));
        break;
      case MutationKind::kDeleteEdge:
        edge_deletes.emplace_back(std::min(mu.u, mu.v), std::max(mu.u, mu.v));
        break;
    }
  }
  auto canon = [](auto& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  canon(edge_inserts);
  canon(edge_deletes);
  canon(vertex_deletes);

  // Validate every reference BEFORE mutating anything, so a bad batch
  // is rejected atomically (throws with the graph and coloring
  // untouched). Ids in [capacity, capacity + vertex_inserts) refer to
  // this batch's own vertex inserts.
  const NodeId cap0 = graph_.capacity();
  auto will_exist = [&](NodeId v) {
    return v < cap0 ? graph_.alive(v) : v < cap0 + vertex_inserts;
  };
  for (auto [u, v] : edge_inserts) {
    PDC_CHECK_MSG(u != v, "self-loop edge insert on " << u);
    PDC_CHECK_MSG(will_exist(u) && will_exist(v),
                  "edge insert references dead or unknown id (" << u << ", "
                                                                << v << ")");
  }
  for (auto [u, v] : edge_deletes)
    PDC_CHECK_MSG(will_exist(u) && will_exist(v),
                  "edge delete references dead or unknown id (" << u << ", "
                                                                << v << ")");
  for (NodeId v : vertex_deletes)
    PDC_CHECK_MSG(will_exist(v),
                  "vertex delete references dead or unknown id " << v);

  for (std::size_t k = 0; k < vertex_inserts; ++k) {
    const NodeId id = graph_.add_vertex();
    colors_.push_back(kNoColor);
    palettes_.emplace_back();
    out.new_vertices.push_back(id);
    mark_dirty(id);
    ++out.applied;
  }

  std::vector<std::pair<NodeId, NodeId>> inserted;
  for (auto [u, v] : edge_inserts)
    if (graph_.add_edge(u, v)) {
      inserted.emplace_back(u, v);
      mark_dirty(u);
      mark_dirty(v);
    }
  out.applied += inserted.size();
  for (auto [u, v] : edge_deletes)
    if (graph_.remove_edge(u, v)) {
      mark_dirty(u);
      mark_dirty(v);
      ++out.applied;
    }
  for (NodeId v : vertex_deletes) {
    // Record the soon-detached neighbors before the removal clears the
    // adjacency — their snapshot leaves change too.
    for (NodeId u : graph_.neighbors(v)) mark_dirty(u);
    graph_.remove_vertex(v);
    colors_[v] = kNoColor;
    palettes_[v].clear();
    mark_dirty(v);
    ++out.applied;
  }

  // Degree+1 palette maintenance after the structure settles (final
  // degrees => deterministic palettes).
  std::vector<NodeId> touched(out.new_vertices.begin(),
                              out.new_vertices.end());
  for (auto [u, v] : inserted) {
    touched.push_back(u);
    touched.push_back(v);
  }
  canon(touched);
  for (NodeId v : touched)
    if (graph_.alive(v)) grow_palette(v);

  // Damaged region: new vertices (uncolored) plus, per surviving
  // inserted edge whose endpoints collide, the higher endpoint — a
  // deterministic choice, so the region is a function of the batch set.
  std::vector<NodeId> damaged;
  for (NodeId v : out.new_vertices)
    if (graph_.alive(v)) damaged.push_back(v);
  for (auto [u, v] : inserted) {
    if (!graph_.alive(u) || !graph_.alive(v) || !graph_.has_edge(u, v))
      continue;
    if (colors_[u] != kNoColor && colors_[u] == colors_[v])
      damaged.push_back(std::max(u, v));
  }
  canon(damaged);
  out.damaged = damaged.size();
  stats_.damaged_nodes += damaged.size();
  if (bspan.active()) bspan.tag_u64("damaged", out.damaged);
  if (req.active()) req.tag_u64("damaged", out.damaged);

  if (damaged.empty()) {
    out.valid = true;
  } else if (static_cast<double>(damaged.size()) >
             cfg_.full_resolve_fraction *
                 static_cast<double>(graph_.num_alive())) {
    full_resolve(&out);
  } else {
    recolor_region(std::move(damaged), out);
  }

  // Commit point: publish the post-batch snapshot before returning so
  // any read that starts after this call observes batch_seq >= ours.
  out.batch_seq = ++last_batch_seq_;
  publish_snapshot("batch", out.batch_seq, &out);
  maybe_compact(out);

  publish_mutation_metrics(
      out, batch.size(),
      static_cast<double>(Timer::now_us() - start_us) / 1000.0);
  return out;
}

void ColoringService::recolor_region(std::vector<NodeId> region,
                                     MutationResult& out) {
  const std::uint64_t start_us = Timer::now_us();
  obs::Span span("service.recolor");
  if (span.active()) {
    span.tag_u64("request_id", out.request_id);
    span.tag_u64("region", region.size());
    span.tag("mode", "incremental");
  }
  for (NodeId v : region) {
    colors_[v] = kNoColor;
    mark_dirty(v);
  }
  d1lc::RegionInstance ri = d1lc::build_region_instance(
      graph_, [&](NodeId v) { return std::span<const Color>(palettes_[v]); },
      colors_, region);

  const std::uint64_t sig =
      cache_.capacity() > 0 ? RegionCache::signature(ri.instance, "recolor")
                            : 0;
  bool served = false;
  if (cache_.capacity() > 0) {
    if (const std::vector<Color>* hit = cache_.lookup(sig)) {
      // The restricted palettes already encode the exterior, so a
      // proper in-palette coloring of the region instance is safe to
      // commit as-is. Collisions/stale entries fail this check and
      // fall through to a real solve.
      if (hit->size() == ri.to_parent.size() &&
          is_proper_coloring(ri.instance.graph, *hit,
                             &ri.instance.palettes)) {
        lift_coloring(ri.to_parent, *hit, colors_);
        cache_.record_hit();
        out.cache_hit = true;
        out.valid = true;
        served = true;
      } else {
        cache_.record_rejected_hit();
      }
    } else {
      cache_.record_miss();
    }
  }

  if (!served) {
    d1lc::SolveResult r = d1lc::solve_d1lc(ri.instance, cfg_.solver);
    stats_.seed_search.absorb(r.seed_search);
    out.valid = r.valid;
    lift_coloring(ri.to_parent, r.coloring, colors_);
    if (cfg_.cache_capacity > 0 && r.valid)
      cache_.insert(sig, std::move(r.coloring));
  }

  ++stats_.incremental_recolors;
  stats_.recolored_nodes += region.size();
  stats_.recolor_ms +=
      static_cast<double>(Timer::now_us() - start_us) / 1000.0;
  if (span.active()) span.tag("cache", out.cache_hit ? "hit" : "miss");
}

void ColoringService::full_resolve(MutationResult* out) {
  const std::uint64_t start_us = Timer::now_us();
  obs::Span span("service.recolor");
  std::vector<NodeId> live;
  live.reserve(graph_.num_alive());
  for (NodeId v = 0; v < graph_.capacity(); ++v)
    if (graph_.alive(v)) live.push_back(v);
  if (span.active()) {
    if (out != nullptr) span.tag_u64("request_id", out->request_id);
    span.tag_u64("region", live.size());
    span.tag("mode", "full");
  }
  for (NodeId v : live) colors_[v] = kNoColor;
  d1lc::RegionInstance ri = d1lc::build_region_instance(
      graph_, [&](NodeId v) { return std::span<const Color>(palettes_[v]); },
      colors_, live);
  d1lc::SolveResult r = d1lc::solve_d1lc(ri.instance, cfg_.solver);
  stats_.seed_search.absorb(r.seed_search);
  lift_coloring(ri.to_parent, r.coloring, colors_);
  if (out != nullptr) {
    out->full_resolve = true;
    out->valid = r.valid;
  }
  dirty_full_ = true;
  ++stats_.full_resolves;
  stats_.recolored_nodes += live.size();
  stats_.full_ms += static_cast<double>(Timer::now_us() - start_us) / 1000.0;
}

}  // namespace pdc::service
