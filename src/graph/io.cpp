#include "pdc/graph/io.hpp"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "pdc/util/check.hpp"

namespace pdc::io {

namespace {

bool is_comment(const std::string& line) {
  for (char ch : line) {
    if (ch == ' ' || ch == '\t') continue;
    return ch == '#' || ch == '%';
  }
  return true;  // blank line
}

/// A node id or node count read from a file, checked to fit NodeId. Ids
/// stop one short of the maximum so that `id + 1` (the implied node
/// count) still fits.
NodeId to_node_id(std::uint64_t id, const std::string& line) {
  PDC_CHECK_MSG(id < std::numeric_limits<NodeId>::max(),
                "node id out of range: " << line);
  return static_cast<NodeId>(id);
}

}  // namespace

Graph read_edge_list(std::istream& in) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId n = 0;
  bool n_pinned = false;
  std::string line;
  while (std::getline(in, line)) {
    if (is_comment(line)) continue;
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    if (head == "n") {
      std::uint64_t count = 0;
      ls >> count;
      PDC_CHECK_MSG(!ls.fail(), "malformed node-count line: " << line);
      n = to_node_id(count, line);
      n_pinned = true;
      continue;
    }
    if (head == "c") continue;  // palette line (instance format)
    std::uint64_t u = 0, v = 0;
    const char* end = head.data() + head.size();
    const auto [ptr, ec] = std::from_chars(head.data(), end, u);
    ls >> v;
    PDC_CHECK_MSG(ec == std::errc() && ptr == end && !ls.fail(),
                  "malformed edge line: " << line);
    const NodeId a = to_node_id(u, line), b = to_node_id(v, line);
    edges.emplace_back(a, b);
    if (!n_pinned) n = std::max<NodeId>(n, std::max(a, b) + 1);
  }
  return Graph::from_edges(n, std::move(edges));
}

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# pdc edge list\n";
  out << "n " << g.num_nodes() << "\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (u > v) out << v << " " << u << "\n";
    }
  }
}

Graph read_dimacs(std::istream& in) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    char kind = 0;
    ls >> kind;
    if (kind == 'c') continue;
    if (kind == 'p') {
      std::string fmt;
      std::uint64_t nn = 0, mm = 0;
      ls >> fmt >> nn >> mm;
      PDC_CHECK_MSG(fmt == "edge" || fmt == "col",
                    "unsupported DIMACS problem type: " << fmt);
      n = to_node_id(nn, line);
      continue;
    }
    if (kind == 'e') {
      std::uint64_t u = 0, v = 0;
      ls >> u >> v;
      PDC_CHECK_MSG(u >= 1 && v >= 1, "DIMACS ids are 1-based");
      edges.emplace_back(to_node_id(u - 1, line), to_node_id(v - 1, line));
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

void write_dimacs(std::ostream& out, const Graph& g) {
  out << "c pdc DIMACS export\n";
  out << "p edge " << g.num_nodes() << " " << g.num_edges() << "\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (u > v) out << "e " << v + 1 << " " << u + 1 << "\n";
    }
  }
}

D1lcInstance read_instance(std::istream& in) {
  // First pass: buffer the stream so the edge reader and palette reader
  // both see it (instances are file-sized, not streams).
  std::stringstream buf;
  buf << in.rdbuf();
  std::string body = buf.str();

  std::istringstream pass1(body);
  Graph g = read_edge_list(pass1);

  std::vector<std::vector<Color>> lists(g.num_nodes());
  std::istringstream pass2(body);
  std::string line;
  bool any_palette = false;
  while (std::getline(pass2, line)) {
    if (is_comment(line)) continue;
    std::istringstream ls(line);
    std::string head;
    ls >> head;
    if (head != "c") continue;
    std::uint64_t v = 0, k = 0;
    ls >> v >> k;
    PDC_CHECK_MSG(!ls.fail(), "malformed palette line: " << line);
    PDC_CHECK_MSG(v < g.num_nodes(), "palette for unknown node " << v);
    // Colors are read one at a time rather than sized from `k`, so a
    // huge declared count fails on the missing colors instead of
    // allocating for them.
    lists[v].clear();
    for (std::uint64_t i = 0; i < k; ++i) {
      Color c = 0;
      ls >> c;
      PDC_CHECK_MSG(!ls.fail(), "malformed palette line: " << line);
      lists[v].push_back(c);
    }
    any_palette = true;
  }
  if (!any_palette) return make_degree_plus_one(g);
  D1lcInstance inst{std::move(g), PaletteSet::from_lists(std::move(lists))};
  PDC_CHECK_MSG(inst.valid(), "instance violates the degree+1 invariant");
  return inst;
}

void write_instance(std::ostream& out, const D1lcInstance& inst) {
  write_edge_list(out, inst.graph);
  out << "# palettes: c <node> <k> <colors...>\n";
  for (NodeId v = 0; v < inst.graph.num_nodes(); ++v) {
    auto pal = inst.palettes.palette(v);
    out << "c " << v << " " << pal.size();
    for (Color c : pal) out << " " << c;
    out << "\n";
  }
}

namespace {
std::ifstream open_in(const std::string& path) {
  std::ifstream f(path);
  PDC_CHECK_MSG(f.good(), "cannot open " << path);
  return f;
}
std::ofstream open_out(const std::string& path) {
  std::ofstream f(path);
  PDC_CHECK_MSG(f.good(), "cannot open " << path);
  return f;
}
bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}
}  // namespace

Graph load_graph(const std::string& path) {
  auto f = open_in(path);
  return ends_with(path, ".col") ? read_dimacs(f) : read_edge_list(f);
}

void save_graph(const std::string& path, const Graph& g) {
  auto f = open_out(path);
  if (ends_with(path, ".col")) {
    write_dimacs(f, g);
  } else {
    write_edge_list(f, g);
  }
}

D1lcInstance load_instance(const std::string& path) {
  auto f = open_in(path);
  return read_instance(f);
}

void save_instance(const std::string& path, const D1lcInstance& inst) {
  auto f = open_out(path);
  write_instance(f, inst);
}

}  // namespace pdc::io
