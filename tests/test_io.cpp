// Tests for graph/instance (de)serialization, the new generators, and
// the CLI argument parser.

#include <gtest/gtest.h>

#include <sstream>

#include "pdc/graph/generators.hpp"
#include "pdc/graph/io.hpp"
#include "pdc/util/cli.hpp"

namespace pdc {
namespace {

TEST(Io, EdgeListRoundTrip) {
  Graph g = gen::gnp(200, 0.04, 3);
  std::stringstream s;
  io::write_edge_list(s, g);
  Graph h = io::read_edge_list(s);
  EXPECT_EQ(g.num_nodes(), h.num_nodes());
  EXPECT_EQ(g.adjacency(), h.adjacency());
}

TEST(Io, EdgeListPreservesIsolatedTrailingNodes) {
  Graph g = Graph::from_edges(5, {{0, 1}});  // nodes 2..4 isolated
  std::stringstream s;
  io::write_edge_list(s, g);
  Graph h = io::read_edge_list(s);
  EXPECT_EQ(h.num_nodes(), 5u);
}

TEST(Io, EdgeListSkipsCommentsAndBlankLines) {
  std::stringstream s("# hello\n\nn 4\n0 1\n% other comment\n2 3\n");
  Graph g = io::read_edge_list(s);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Io, DimacsRoundTrip) {
  Graph g = gen::planted_cliques(3, 8, 0.2, 5).graph;
  std::stringstream s;
  io::write_dimacs(s, g);
  Graph h = io::read_dimacs(s);
  EXPECT_EQ(g.num_nodes(), h.num_nodes());
  EXPECT_EQ(g.adjacency(), h.adjacency());
}

TEST(Io, DimacsParsesStandardHeader) {
  std::stringstream s("c comment\np edge 3 2\ne 1 2\ne 2 3\n");
  Graph g = io::read_dimacs(s);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Io, InstanceRoundTripWithPalettes) {
  Graph g = gen::gnp(80, 0.08, 7);
  D1lcInstance inst =
      make_random_lists(g, static_cast<Color>(g.max_degree()) + 12, 2, 9);
  std::stringstream s;
  io::write_instance(s, inst);
  D1lcInstance back = io::read_instance(s);
  EXPECT_EQ(back.graph.adjacency(), inst.graph.adjacency());
  ASSERT_EQ(back.palettes.num_nodes(), inst.palettes.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto a = inst.palettes.palette(v);
    auto b = back.palettes.palette(v);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(Io, InstanceWithoutPaletteLinesGetsDegreePlusOne) {
  std::stringstream s("n 3\n0 1\n1 2\n");
  D1lcInstance inst = io::read_instance(s);
  EXPECT_TRUE(inst.valid());
  EXPECT_EQ(inst.palettes.size(1), 3u);  // degree 2 + 1
}

TEST(Io, RejectsInvalidInstances) {
  // Node 1 has degree 2 but a palette of size 1.
  std::stringstream s("n 3\n0 1\n1 2\nc 1 1 0\nc 0 2 0 1\nc 2 2 0 1\n");
  EXPECT_THROW(io::read_instance(s), check_error);
}

// ---- Hostile input fails with a PDC_CHECK error. ----

TEST(Io, HugePaletteCountFailsWithoutAllocating) {
  // The declared count is checked against the colors actually present.
  std::stringstream s("n 2\n0 1\nc 0 4000000000 1\n");
  EXPECT_THROW(io::read_instance(s), check_error);
}

TEST(Io, NonNumericEdgeLineIsACheckError) {
  for (const char* text : {"n 3\nfoo 1\n", "n 3\n1x 2\n", "n 3\n-1 2\n",
                           "99999999999999999999 1\n"}) {
    std::stringstream s(text);
    EXPECT_THROW(io::read_edge_list(s), check_error) << text;
  }
}

TEST(Io, NodeIdsBeyondNodeIdAreRejected) {
  // 4294967295 is rejected too: its implied node count overflows.
  for (const char* text : {"4294967296 1\n", "0 4294967296\n",
                           "4294967295 0\n", "n 4294967296\n"}) {
    std::stringstream s(text);
    EXPECT_THROW(io::read_edge_list(s), check_error) << text;
  }
  std::stringstream dimacs("p edge 2 1\ne 4294967297 1\n");
  EXPECT_THROW(io::read_dimacs(dimacs), check_error);
}

// ---- New generators. ----

TEST(Generators, BipartiteHasNoOddCycleWitnesses) {
  Graph g = gen::bipartite(60, 80, 0.05, 3);
  EXPECT_EQ(g.num_nodes(), 140u);
  // No edge inside either side.
  for (NodeId v = 0; v < 60; ++v)
    for (NodeId u : g.neighbors(v)) EXPECT_GE(u, 60u);
  for (NodeId v = 60; v < 140; ++v)
    for (NodeId u : g.neighbors(v)) EXPECT_LT(u, 60u);
}

TEST(Generators, RandomTreeIsConnectedAcyclic) {
  Graph g = gen::random_tree(500, 7);
  EXPECT_EQ(g.num_edges(), 499u);  // n-1 edges + construction connects
}

TEST(Generators, RingOfCliquesShape) {
  Graph g = gen::ring_of_cliques(4, 6);
  EXPECT_EQ(g.num_nodes(), 24u);
  EXPECT_EQ(g.num_edges(), 4u * 15 + 4u);  // 4 K6 + 4 bridges
}

TEST(Generators, HypercubeIsRegular) {
  Graph g = gen::hypercube(5);
  EXPECT_EQ(g.num_nodes(), 32u);
  for (NodeId v = 0; v < 32; ++v) EXPECT_EQ(g.degree(v), 5u);
  EXPECT_EQ(g.num_edges(), 80u);
}

TEST(Generators, SmallWorldDegreesNearLattice) {
  Graph g = gen::small_world(300, 4, 0.1, 5);
  for (NodeId v = 0; v < 300; ++v) {
    EXPECT_GE(g.degree(v), 2u);
    EXPECT_LE(g.degree(v), 16u);
  }
}

TEST(Generators, PreferentialAttachmentSkewsDegrees) {
  Graph g = gen::preferential_attachment(1000, 3, 9);
  std::uint32_t maxd = g.max_degree();
  double avg = 2.0 * static_cast<double>(g.num_edges()) / g.num_nodes();
  EXPECT_GT(static_cast<double>(maxd), 5.0 * avg);  // heavy tail
}

// ---- CLI parser. ----

TEST(Cli, ParsesAllForms) {
  // Note: a bare token after a bare flag is taken as that flag's value
  // (the documented "--flag value" form), so positionals precede flags.
  const char* argv[] = {"prog",   "pos1", "--alpha=3", "--beta",
                        "7",      "--flag", "--gamma=x"};
  CliArgs args(7, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 7);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get("gamma", ""), "x");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.5), 0.5);
  EXPECT_EQ(args.get("mode", "det"), "det");
}

}  // namespace
}  // namespace pdc
