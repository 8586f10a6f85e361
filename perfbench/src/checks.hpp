#pragma once
// Output checks made apart from the program under test. Nothing here
// calls the library's own validators (check_coloring, validate(),
// MutationResult::valid is read but never trusted alone): every verdict
// comes from a loop over the benchmark's own view of the input.

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pdc/d1lc/solver.hpp"
#include "pdc/service/snapshot.hpp"

namespace perfbench {

using pdc::Color;
using pdc::NodeId;

/// Verdict of a degree+1 coloring check: `error` is empty when the
/// coloring passed.
struct ColoringVerdict {
  std::string error;
  std::uint64_t colors_used = 0;
  bool ok() const { return error.empty(); }
};

/// The instance was built with degree+1 palettes {0, ..., deg(v)}: the
/// coloring must be complete, proper on every edge, inside each node's
/// palette, and so use at most Δ+1 distinct colors.
ColoringVerdict check_degree_plus_one(const pdc::Graph& g,
                                      std::span<const Color> coloring);

/// What must repeat exactly when one instance is solved again: the
/// method is deterministic.
struct SolveFingerprint {
  std::vector<Color> coloring;
  std::uint64_t mpc_rounds = 0;
  std::uint64_t evaluations = 0;
};
SolveFingerprint fingerprint(const pdc::d1lc::SolveResult& r);

/// Empty when `again` repeats `first` exactly.
std::string compare_repeat(const SolveFingerprint& first,
                           const SolveFingerprint& again);

/// Conditional-expectation guarantee: every Lemma-10 search picked a
/// seed with ssp_failures <= the seed-space mean of its objective.
std::string check_lemma10(
    const std::vector<pdc::hknt::MiddleReport>& reports);

/// The benchmark's own copy of the live graph under churn. Mutations are
/// drawn from it, so every batch is valid by construction, and published
/// snapshots are checked against it.
class MirrorGraph {
 public:
  /// Room is reserved for `max_vertices` ids and `max_edges` live edges,
  /// so the mirror's own footprint does not depend on how the churn runs.
  MirrorGraph(const pdc::Graph& g, NodeId max_vertices,
              std::uint64_t max_edges);

  NodeId capacity() const { return static_cast<NodeId>(adj_.size()); }
  NodeId num_alive() const { return alive_count_; }
  std::uint64_t num_edges() const { return edges_.size(); }
  bool alive(NodeId v) const { return v < capacity() && alive_[v] != 0; }
  bool has_edge(NodeId u, NodeId v) const {
    return pos_.count(key(u, v)) != 0;
  }
  /// The i-th live edge (0 <= i < num_edges()), in no fixed order.
  std::pair<NodeId, NodeId> edge(std::size_t i) const {
    return {static_cast<NodeId>(edges_[i] >> 32),
            static_cast<NodeId>(edges_[i] & 0xFFFFFFFFu)};
  }

  NodeId add_vertex();
  void add_edge(NodeId u, NodeId v);
  void remove_edge(NodeId u, NodeId v);
  void remove_vertex(NodeId v);

 private:
  static std::uint64_t key(NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  std::vector<std::vector<NodeId>> adj_;
  std::vector<char> alive_;
  NodeId alive_count_ = 0;
  std::vector<std::uint64_t> edges_;
  std::unordered_map<std::uint64_t, std::size_t> pos_;  // key -> edges_ slot
};

/// A published snapshot agrees with the mirror: same id space, same live
/// set, same live vertex and edge counts, every live vertex colored, and
/// no mirror edge monochromatic. Empty when it passed.
std::string check_snapshot(const MirrorGraph& mirror,
                           const pdc::service::ColoringSnapshot& snap);

/// Distinct colors over the snapshot's live vertices, counted here.
std::uint64_t count_colors(const MirrorGraph& mirror,
                           const pdc::service::ColoringSnapshot& snap);

/// Feeds each checker a known-bad input (one node recolored to a
/// neighbor's color, a non-deterministic repeat, a broken Lemma-10
/// report, a snapshot that disagrees with its mirror) and a good one.
/// Returns the first checker that gave the wrong verdict, or "".
std::string self_test();

}  // namespace perfbench
