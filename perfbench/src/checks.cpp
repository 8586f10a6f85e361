#include "checks.hpp"

#include <algorithm>
#include <sstream>

#include "pdc/baseline/greedy.hpp"
#include "pdc/graph/generators.hpp"
#include "pdc/service/service.hpp"

namespace perfbench {

ColoringVerdict check_degree_plus_one(const pdc::Graph& g,
                                      std::span<const Color> coloring) {
  ColoringVerdict out;
  std::ostringstream err;
  if (coloring.size() != g.num_nodes()) {
    err << "coloring has " << coloring.size() << " entries for "
        << g.num_nodes() << " nodes";
    out.error = err.str();
    return out;
  }
  std::vector<char> seen(static_cast<std::size_t>(g.max_degree()) + 1, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const Color c = coloring[v];
    if (c < 0 || c > static_cast<Color>(g.degree(v))) {
      err << "node " << v << " has color " << c << " outside {0.."
          << g.degree(v) << "}";
      out.error = err.str();
      return out;
    }
    for (NodeId u : g.neighbors(v)) {
      if (coloring[u] == c) {
        err << "edge (" << v << ", " << u << ") is monochromatic (" << c
            << ")";
        out.error = err.str();
        return out;
      }
    }
    if (seen[static_cast<std::size_t>(c)] == 0) {
      seen[static_cast<std::size_t>(c)] = 1;
      ++out.colors_used;
    }
  }
  if (out.colors_used > static_cast<std::uint64_t>(g.max_degree()) + 1) {
    err << out.colors_used << " colors exceed Delta+1 = "
        << g.max_degree() + 1;
    out.error = err.str();
  }
  return out;
}

SolveFingerprint fingerprint(const pdc::d1lc::SolveResult& r) {
  return {r.coloring, r.ledger.rounds(), r.seed_search.evaluations};
}

std::string compare_repeat(const SolveFingerprint& first,
                           const SolveFingerprint& again) {
  std::ostringstream err;
  if (again.coloring != first.coloring) {
    std::size_t diff = 0;
    if (again.coloring.size() == first.coloring.size())
      for (std::size_t v = 0; v < first.coloring.size(); ++v)
        diff += again.coloring[v] != first.coloring[v] ? 1 : 0;
    err << "repeat solve changed the coloring (" << diff << " nodes) ";
  }
  if (again.mpc_rounds != first.mpc_rounds)
    err << "repeat solve changed mpc rounds " << first.mpc_rounds << " -> "
        << again.mpc_rounds << " ";
  if (again.evaluations != first.evaluations)
    err << "repeat solve changed engine evaluations " << first.evaluations
        << " -> " << again.evaluations;
  return err.str();
}

std::string check_lemma10(
    const std::vector<pdc::hknt::MiddleReport>& reports) {
  for (const auto& pass : reports) {
    for (const auto& step : pass.steps) {
      if (static_cast<double>(step.ssp_failures) > step.mean_failures) {
        std::ostringstream err;
        err << "Lemma-10 search for " << step.procedure << " chose seed "
            << step.seed << " with " << step.ssp_failures
            << " failures above the seed-space mean " << step.mean_failures;
        return err.str();
      }
    }
  }
  return {};
}

MirrorGraph::MirrorGraph(const pdc::Graph& g, NodeId max_vertices,
                         std::uint64_t max_edges)
    : adj_(g.num_nodes()), alive_(g.num_nodes(), 1),
      alive_count_(g.num_nodes()) {
  adj_.reserve(std::max(max_vertices, g.num_nodes()));
  alive_.reserve(std::max(max_vertices, g.num_nodes()));
  edges_.reserve(std::max(max_edges, g.num_edges()));
  pos_.reserve(std::max(max_edges, g.num_edges()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      adj_[v].push_back(u);
      if (v < u) {
        pos_.emplace(key(v, u), edges_.size());
        edges_.push_back(key(v, u));
      }
    }
  }
}

NodeId MirrorGraph::add_vertex() {
  adj_.emplace_back();
  alive_.push_back(1);
  ++alive_count_;
  return capacity() - 1;
}

void MirrorGraph::add_edge(NodeId u, NodeId v) {
  PDC_CHECK(u != v && alive(u) && alive(v) && !has_edge(u, v));
  pos_.emplace(key(u, v), edges_.size());
  edges_.push_back(key(u, v));
  adj_[u].push_back(v);
  adj_[v].push_back(u);
}

void MirrorGraph::remove_edge(NodeId u, NodeId v) {
  auto it = pos_.find(key(u, v));
  PDC_CHECK(it != pos_.end());
  const std::size_t slot = it->second;
  pos_.erase(it);
  if (slot + 1 != edges_.size()) {
    edges_[slot] = edges_.back();
    pos_[edges_[slot]] = slot;
  }
  edges_.pop_back();
  auto drop = [](std::vector<NodeId>& list, NodeId x) {
    list.erase(std::find(list.begin(), list.end(), x));
  };
  drop(adj_[u], v);
  drop(adj_[v], u);
}

void MirrorGraph::remove_vertex(NodeId v) {
  PDC_CHECK(alive(v));
  while (!adj_[v].empty()) remove_edge(v, adj_[v].back());
  alive_[v] = 0;
  --alive_count_;
}

std::string check_snapshot(const MirrorGraph& mirror,
                           const pdc::service::ColoringSnapshot& snap) {
  std::ostringstream err;
  if (snap.capacity != mirror.capacity()) {
    err << "snapshot capacity " << snap.capacity << " != mirror "
        << mirror.capacity();
    return err.str();
  }
  NodeId live = 0;
  for (NodeId v = 0; v < mirror.capacity(); ++v) {
    if (snap.alive(v) != mirror.alive(v)) {
      err << "vertex " << v << " alive in "
          << (mirror.alive(v) ? "mirror" : "snapshot") << " only";
      return err.str();
    }
    if (!mirror.alive(v)) continue;
    ++live;
    if (snap.color(v) == pdc::kNoColor) {
      err << "live vertex " << v << " is uncolored";
      return err.str();
    }
  }
  if (snap.num_alive != live || live != mirror.num_alive()) {
    err << "live vertices: snapshot " << snap.num_alive << ", mirror "
        << mirror.num_alive();
    return err.str();
  }
  if (snap.num_edges != mirror.num_edges()) {
    err << "edges: snapshot " << snap.num_edges << ", mirror "
        << mirror.num_edges();
    return err.str();
  }
  for (std::size_t i = 0; i < mirror.num_edges(); ++i) {
    auto [u, v] = mirror.edge(i);
    if (snap.color(u) == snap.color(v)) {
      err << "mirror edge (" << u << ", " << v << ") is monochromatic ("
          << snap.color(u) << ")";
      return err.str();
    }
  }
  return {};
}

std::uint64_t count_colors(const MirrorGraph& mirror,
                           const pdc::service::ColoringSnapshot& snap) {
  std::vector<Color> used;
  used.reserve(mirror.num_alive());
  for (NodeId v = 0; v < mirror.capacity(); ++v)
    if (mirror.alive(v)) used.push_back(snap.color(v));
  std::sort(used.begin(), used.end());
  return static_cast<std::uint64_t>(
      std::unique(used.begin(), used.end()) - used.begin());
}

std::string self_test() {
  const pdc::Graph g = pdc::gen::gnp(300, 0.04, 11);
  const pdc::D1lcInstance inst = pdc::make_degree_plus_one(g);
  const pdc::Coloring good = pdc::baseline::greedy_d1lc(inst);
  if (!check_degree_plus_one(g, good).ok())
    return "coloring checker rejected a proper greedy coloring";

  // One node recolored to a neighbor's color that its own palette also
  // holds, so only the properness test can catch it.
  const auto [v, u] = [&]() -> std::pair<NodeId, NodeId> {
    for (NodeId a = 0; a < g.num_nodes(); ++a)
      for (NodeId b : g.neighbors(a))
        if (good[b] <= static_cast<Color>(g.degree(a))) return {a, b};
    return {0, 0};
  }();
  pdc::Coloring clash = good;
  clash[v] = good[u];
  if (check_degree_plus_one(g, clash).ok())
    return "coloring checker accepted a monochromatic edge";
  pdc::Coloring hole = good;
  hole[v] = pdc::kNoColor;
  if (check_degree_plus_one(g, hole).ok())
    return "coloring checker accepted an uncolored node";
  pdc::Coloring outside = good;
  outside[v] = static_cast<Color>(g.degree(v)) + 1;
  if (check_degree_plus_one(g, outside).ok())
    return "coloring checker accepted a color outside the palette";

  const SolveFingerprint first{good, 10, 100};
  if (!compare_repeat(first, first).empty())
    return "determinism checker rejected an identical repeat";
  SolveFingerprint changed = first;
  changed.coloring = clash;
  if (compare_repeat(first, changed).empty())
    return "determinism checker accepted a changed coloring";
  changed = first;
  ++changed.mpc_rounds;
  if (compare_repeat(first, changed).empty())
    return "determinism checker accepted changed mpc rounds";
  changed = first;
  ++changed.evaluations;
  if (compare_repeat(first, changed).empty())
    return "determinism checker accepted changed evaluations";

  pdc::hknt::MiddleReport pass;
  pass.steps.emplace_back();
  pass.steps.back().ssp_failures = 3;
  pass.steps.back().mean_failures = 3.0;
  if (!check_lemma10({pass}).empty())
    return "Lemma-10 checker rejected failures equal to the mean";
  pass.steps.back().ssp_failures = 4;
  if (check_lemma10({pass}).empty())
    return "Lemma-10 checker accepted failures above the mean";

  pdc::service::ColoringService svc(inst, good);
  MirrorGraph mirror(g, g.num_nodes() + 1, g.num_edges() + 1);
  if (!check_snapshot(mirror, *svc.snapshot()).empty())
    return "snapshot checker rejected a matching snapshot";
  if (count_colors(mirror, *svc.snapshot()) !=
      check_degree_plus_one(g, good).colors_used)
    return "snapshot color count disagrees with the coloring's";
  // An edge the service never saw, between two equally colored nodes.
  for (NodeId a = 0; a < g.num_nodes(); ++a) {
    for (NodeId b = a + 1; b < g.num_nodes(); ++b) {
      if (good[a] != good[b] || mirror.has_edge(a, b)) continue;
      // Swap one real edge for the clashing one, so the counts agree and
      // only the monochromatic-edge test can catch it.
      const auto [x, y] = mirror.edge(0);
      mirror.remove_edge(x, y);
      mirror.add_edge(a, b);
      if (check_snapshot(mirror, *svc.snapshot()).empty())
        return "snapshot checker accepted a monochromatic mirror edge";
      mirror.remove_edge(a, b);
      mirror.add_edge(x, y);
      mirror.add_vertex();
      if (check_snapshot(mirror, *svc.snapshot()).empty())
        return "snapshot checker accepted a vertex the service lacks";
      return {};
    }
  }
  return "self-test found no equally colored non-adjacent pair";
}

}  // namespace perfbench
