#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "steiner/dualascent.hpp"
#include "steiner/exactdp.hpp"
#include "steiner/graph.hpp"
#include "steiner/heuristics.hpp"
#include "steiner/instances.hpp"
#include "steiner/maxflow.hpp"
#include "steiner/reductions.hpp"
#include "steiner/shortest.hpp"
#include "steiner/stpsolver.hpp"

using namespace steiner;

namespace {

/// A small classic: star center 0 with terminals 1,2,3 (spokes cost 1) and
/// expensive direct terminal-terminal edges -> optimum uses the Steiner
/// vertex: cost 3.
Graph starInstance() {
    Graph g(4);
    g.addEdge(0, 1, 1.0);
    g.addEdge(0, 2, 1.0);
    g.addEdge(0, 3, 1.0);
    g.addEdge(1, 2, 2.5);
    g.addEdge(2, 3, 2.5);
    g.setTerminal(1, true);
    g.setTerminal(2, true);
    g.setTerminal(3, true);
    return g;
}

Graph randomConnectedInstance(int n, int terms, unsigned seed) {
    // Geometric with a fat radius is almost surely connected; regenerate on
    // the rare failure.
    for (unsigned s = seed;; ++s) {
        Graph g = genGeometric(n, terms, 0.6, s);
        SpResult sp = dijkstra(g, 0);
        bool connected = true;
        for (int v = 0; v < n; ++v)
            if (sp.dist[v] >= kInfCost) connected = false;
        if (connected && g.numTerminals() == terms) return g;
    }
}

}  // namespace

// --- graph basics -----------------------------------------------------------

TEST(SteinerGraph, BasicAccounting) {
    Graph g(5);
    const int e0 = g.addEdge(0, 1, 2.0);
    g.addEdge(1, 2, 3.0);
    g.setTerminal(0, true);
    g.setTerminal(2, true);
    EXPECT_EQ(g.numVertices(), 5);
    EXPECT_EQ(g.numActiveEdges(), 2);
    EXPECT_EQ(g.numTerminals(), 2);
    EXPECT_EQ(g.degree(1), 2);
    g.deleteEdge(e0);
    EXPECT_EQ(g.numActiveEdges(), 1);
    EXPECT_EQ(g.degree(1), 1);
    EXPECT_EQ(g.rootTerminal(), 0);
}

TEST(SteinerGraph, ContractionMovesTerminalAndDedups) {
    Graph g(4);
    const int e01 = g.addEdge(0, 1, 1.0);
    g.addEdge(1, 2, 2.0);
    g.addEdge(0, 2, 5.0);  // parallel after contraction; more expensive
    g.addEdge(2, 3, 1.0);
    g.setTerminal(0, true);
    g.setTerminal(3, true);
    g.contractEdge(e01, 1);  // merge 0 into 1
    EXPECT_FALSE(g.vertexAlive(0));
    EXPECT_TRUE(g.isTerminal(1));
    // Parallel edges (1,2): cost 2 kept, cost 5 dropped.
    int count12 = 0;
    double cost12 = 0;
    for (int e = 0; e < g.numEdges(); ++e) {
        const Edge& ed = g.edge(e);
        if (ed.deleted) continue;
        if ((ed.u == 1 && ed.v == 2) || (ed.u == 2 && ed.v == 1)) {
            ++count12;
            cost12 = ed.cost;
        }
    }
    EXPECT_EQ(count12, 1);
    EXPECT_DOUBLE_EQ(cost12, 2.0);
}

TEST(SteinerGraph, SpansTerminals) {
    Graph g = starInstance();
    EXPECT_TRUE(g.spansTerminals({0, 1, 2}));   // the three spokes
    EXPECT_FALSE(g.spansTerminals({0, 1}));     // terminal 3 missing
}

// --- shortest paths / MST ----------------------------------------------------

TEST(SteinerShortest, DijkstraOnPath) {
    Graph g(4);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 2, 2.0);
    g.addEdge(2, 3, 3.0);
    SpResult sp = dijkstra(g, 0);
    EXPECT_DOUBLE_EQ(sp.dist[3], 6.0);
    EXPECT_DOUBLE_EQ(sp.dist[1], 1.0);
}

TEST(SteinerShortest, CappedStopsEarlyAndSkipsEdge) {
    Graph g(3);
    const int direct = g.addEdge(0, 2, 5.0);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 2, 1.0);
    SpResult sp = dijkstraCapped(g, 0, 10.0, direct);
    EXPECT_DOUBLE_EQ(sp.dist[2], 2.0);  // must avoid the skipped edge
}

TEST(SteinerShortest, VoronoiAssignsNearestTerminal) {
    Graph g(5);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 2, 1.0);
    g.addEdge(2, 3, 1.0);
    g.addEdge(3, 4, 1.0);
    g.setTerminal(0, true);
    g.setTerminal(4, true);
    Voronoi vor = voronoi(g);
    EXPECT_EQ(vor.base[1], 0);
    EXPECT_EQ(vor.base[3], 4);
    EXPECT_DOUBLE_EQ(vor.dist[2], 2.0);
}

TEST(SteinerShortest, InducedMstAndPrune) {
    Graph g = starInstance();
    std::vector<bool> mask(4, true);
    bool connected = false;
    std::vector<int> mst = inducedMst(g, mask, &connected);
    ASSERT_TRUE(connected);
    EXPECT_EQ(mst.size(), 3u);
    EXPECT_DOUBLE_EQ(g.costOf(mst), 3.0);
    // Add a dangling non-terminal to prune.
    Graph g2(5);
    g2.addEdge(0, 1, 1.0);
    g2.addEdge(1, 2, 1.0);
    g2.addEdge(1, 4, 1.0);  // dangles at non-terminal 4
    g2.setTerminal(0, true);
    g2.setTerminal(2, true);
    std::vector<int> pruned = pruneTree(g2, {0, 1, 2});
    EXPECT_EQ(pruned.size(), 2u);
}

// --- max flow ----------------------------------------------------------------

TEST(SteinerMaxFlow, SimpleNetwork) {
    MaxFlow mf(4);
    mf.addArc(0, 1, 1.0);
    mf.addArc(0, 2, 1.0);
    mf.addArc(1, 3, 0.5);
    mf.addArc(2, 3, 0.7);
    EXPECT_NEAR(mf.solve(0, 3), 1.2, 1e-9);
    auto side = mf.minCutSourceSide(0);
    EXPECT_TRUE(side[0]);
    EXPECT_FALSE(side[3]);
}

TEST(SteinerMaxFlow, DisconnectedIsZero) {
    MaxFlow mf(3);
    mf.addArc(0, 1, 1.0);
    EXPECT_DOUBLE_EQ(mf.solve(0, 2), 0.0);
    auto side = mf.minCutSourceSide(0);
    EXPECT_TRUE(side[1]);
    EXPECT_FALSE(side[2]);
}

TEST(SteinerMaxFlow, CapacityUpdateAndClear) {
    MaxFlow mf(2);
    const int a = mf.addArc(0, 1, 1.0);
    EXPECT_DOUBLE_EQ(mf.solve(0, 1), 1.0);
    mf.setCapacity(a, 3.0);
    EXPECT_DOUBLE_EQ(mf.solve(0, 1), 3.0);
    mf.clearFlow();
    EXPECT_DOUBLE_EQ(mf.solve(0, 1), 3.0);
}

// --- generators and I/O --------------------------------------------------------

TEST(SteinerInstances, HypercubeStructure) {
    Graph g = genHypercube(4, false);
    EXPECT_EQ(g.numVertices(), 16);
    EXPECT_EQ(g.numActiveEdges(), 32);  // d * 2^(d-1)
    for (int v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4);
    EXPECT_EQ(g.numTerminals(), 8);  // even-parity vertices
    EXPECT_EQ(g.name, "hc4u");
}

TEST(SteinerInstances, CodeCoverStructure) {
    Graph g = genCodeCover(3, 3, true, 7);
    EXPECT_EQ(g.numVertices(), 27);
    // Hamming graph H(3,3): each vertex has 3*(3-1)=6 neighbors.
    for (int v = 0; v < 27; ++v) EXPECT_EQ(g.degree(v), 6);
    EXPECT_GE(g.numTerminals(), 2);
}

TEST(SteinerInstances, BipartiteConnected) {
    Graph g = genBipartite(8, 12, 3, false, 3);
    EXPECT_EQ(g.numVertices(), 20);
    EXPECT_EQ(g.numTerminals(), 8);
    SpResult sp = dijkstra(g, 0);
    for (int t : g.terminals()) EXPECT_LT(sp.dist[t], kInfCost);
}

TEST(SteinerInstances, StpRoundtrip) {
    Graph g = genGrid(3, 3, 4, 11);
    std::ostringstream out;
    ASSERT_TRUE(writeStp(out, g));
    std::istringstream in(out.str());
    auto g2 = readStp(in);
    ASSERT_TRUE(g2.has_value());
    EXPECT_EQ(g2->numVertices(), g.numVertices());
    EXPECT_EQ(g2->numActiveEdges(), g.numActiveEdges());
    EXPECT_EQ(g2->numTerminals(), g.numTerminals());
    // Optimal value must be identical.
    auto opt1 = steinerDpOptimal(g);
    auto opt2 = steinerDpOptimal(*g2);
    ASSERT_TRUE(opt1 && opt2);
    EXPECT_NEAR(*opt1, *opt2, 1e-9);
}

namespace {

/// A two-node .stp text with the given Nodes line value and edge cost.
std::string twoNodeStp(const std::string& nodes, const std::string& cost) {
    return "SECTION Graph\nNodes " + nodes + "\nEdges 1\nE 1 2 " + cost +
           "\nEND\nSECTION Terminals\nTerminals 2\nT 1\nT 2\nEND\nEOF\n";
}

std::optional<Graph> readStpText(const std::string& text) {
    std::istringstream in(text);
    return readStp(in);
}

}  // namespace

TEST(SteinerInstances, ReadsTwoNodeStp) {
    auto g = readStpText(twoNodeStp("2", "3.5"));
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->numVertices(), 2);
    EXPECT_EQ(g->numTerminals(), 2);
    EXPECT_TRUE(readStpText(twoNodeStp("2", "0")).has_value());
}

TEST(SteinerInstances, RejectsHugeNodeCount) {
    // Rejected before the graph is allocated (it would need gigabytes).
    EXPECT_FALSE(readStpText(twoNodeStp("400000000", "1")).has_value());
    EXPECT_FALSE(
        readStpText(twoNodeStp(std::to_string(kMaxStpNodes + 1), "1"))
            .has_value());
    EXPECT_FALSE(readStpText(twoNodeStp("x", "1")).has_value());
}

TEST(SteinerInstances, RejectsNegativeEdgeCost) {
    EXPECT_FALSE(readStpText(twoNodeStp("2", "-1")).has_value());
    EXPECT_FALSE(readStpText(twoNodeStp("2", "-1e-9")).has_value());
}

TEST(SteinerInstances, RejectsNonFiniteEdgeCost) {
    for (const char* bad : {"inf", "-inf", "nan", "1e999"})
        EXPECT_FALSE(readStpText(twoNodeStp("2", bad)).has_value()) << bad;
}

TEST(SteinerInstances, RejectsCorruptStp) {
    std::istringstream bad("SECTION Graph\nE 1 2 3\nEND\nEOF\n");
    EXPECT_FALSE(readStp(bad).has_value());
}

// --- exact DP ------------------------------------------------------------------

TEST(SteinerDp, StarOptimum) {
    Graph g = starInstance();
    auto opt = steinerDpOptimal(g);
    ASSERT_TRUE(opt.has_value());
    EXPECT_NEAR(*opt, 3.0, 1e-9);
}

TEST(SteinerDp, TwoTerminalsIsShortestPath) {
    Graph g(4);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 3, 1.0);
    g.addEdge(0, 2, 0.5);
    g.addEdge(2, 3, 2.0);
    g.setTerminal(0, true);
    g.setTerminal(3, true);
    auto opt = steinerDpOptimal(g);
    ASSERT_TRUE(opt.has_value());
    EXPECT_NEAR(*opt, 2.0, 1e-9);
}

TEST(SteinerDp, DisconnectedReturnsNullopt) {
    Graph g(3);
    g.addEdge(0, 1, 1.0);
    g.setTerminal(0, true);
    g.setTerminal(2, true);
    EXPECT_FALSE(steinerDpOptimal(g).has_value());
}

// --- heuristics ------------------------------------------------------------------

TEST(SteinerHeuristics, TmFindsFeasibleTree) {
    Graph g = randomConnectedInstance(25, 6, 1);
    HeuristicSolution sol = primalHeuristic(g);
    ASSERT_TRUE(sol.valid());
    EXPECT_TRUE(g.spansTerminals(sol.edges));
    auto opt = steinerDpOptimal(g);
    ASSERT_TRUE(opt.has_value());
    EXPECT_GE(sol.cost, *opt - 1e-9);
    EXPECT_LE(sol.cost, 2.0 * *opt + 1e-9);  // TM is a 2-approximation
}

TEST(SteinerHeuristics, CostOverrideBiasesButTrueCostReported) {
    Graph g = starInstance();
    std::vector<double> override(g.numEdges(), 1.0);
    HeuristicSolution sol = tmHeuristic(g, 3, &override);
    ASSERT_TRUE(sol.valid());
    EXPECT_NEAR(sol.cost, g.costOf(sol.edges), 1e-12);
}

// --- dual ascent -------------------------------------------------------------------

TEST(SteinerDualAscent, BoundsBelowOptimum) {
    for (unsigned seed : {1u, 2u, 3u, 4u}) {
        Graph g = randomConnectedInstance(20, 5, seed);
        auto opt = steinerDpOptimal(g);
        ASSERT_TRUE(opt.has_value());
        DualAscentResult da = dualAscent(g);
        EXPECT_FALSE(da.disconnected);
        EXPECT_GT(da.lowerBound, 0.0);
        EXPECT_LE(da.lowerBound, *opt + 1e-6) << "seed " << seed;
        // Reduced costs stay non-negative.
        for (double rc : da.redCost) {
            if (rc < kInfCost) {
                EXPECT_GE(rc, -1e-9);
            }
        }
    }
}

TEST(SteinerDualAscent, DetectsDisconnected) {
    Graph g(4);
    g.addEdge(0, 1, 1.0);
    g.addEdge(2, 3, 1.0);
    g.setTerminal(0, true);
    g.setTerminal(3, true);
    DualAscentResult da = dualAscent(g);
    EXPECT_TRUE(da.disconnected);
}

// --- reductions --------------------------------------------------------------------

TEST(SteinerReductions, DegreeTestsContractTerminalLeaf) {
    // 0(T) -1- 1 -1- 2(T), plus dangling non-terminal 3.
    Graph g(4);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 2, 1.0);
    g.addEdge(1, 3, 5.0);
    g.setTerminal(0, true);
    g.setTerminal(2, true);
    ReductionStats stats;
    degreeTests(g, stats);
    // Everything collapses: the whole optimum (cost 2) ends up fixed.
    EXPECT_NEAR(stats.fixedCost, 2.0, 1e-9);
    EXPECT_LE(g.numTerminals(), 1);
}

TEST(SteinerReductions, SdDeletesDominatedEdge) {
    Graph g(3);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 2, 1.0);
    const int heavy = g.addEdge(0, 2, 3.0);
    g.setTerminal(0, true);
    g.setTerminal(2, true);
    ReductionStats stats;
    sdTest(g, stats);
    EXPECT_TRUE(g.edge(heavy).deleted);
    EXPECT_GE(stats.edgesDeleted, 1);
}

// Property: the full presolve loop preserves the optimal value
// (fixedCost + optimum of reduced == optimum of original).
class ReductionSafety : public ::testing::TestWithParam<int> {};

TEST_P(ReductionSafety, PreservesOptimum) {
    const int seed = GetParam();
    for (int rep = 0; rep < 3; ++rep) {
        Graph g = randomConnectedInstance(24, 6, seed * 100 + rep);
        auto optBefore = steinerDpOptimal(g);
        ASSERT_TRUE(optBefore.has_value());
        Graph reduced = g;
        ReductionStats stats = presolve(reduced);
        double after = stats.fixedCost;
        if (reduced.numTerminals() > 1) {
            auto optAfter = steinerDpOptimal(reduced);
            ASSERT_TRUE(optAfter.has_value());
            after += *optAfter;
        }
        EXPECT_NEAR(after, *optBefore, 1e-6)
            << "seed=" << seed << " rep=" << rep;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionSafety,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- full solver ----------------------------------------------------------------

TEST(SteinerSolverTest, StarInstanceExact) {
    SteinerSolver s(starInstance());
    SteinerResult res = s.solve();
    ASSERT_EQ(res.status, cip::Status::Optimal);
    EXPECT_NEAR(res.cost, 3.0, 1e-6);
}

TEST(SteinerSolverTest, SolvedByPresolveOnEasyInstance) {
    Graph g(3);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 2, 1.0);
    g.setTerminal(0, true);
    g.setTerminal(2, true);
    SteinerSolver s(g);
    SteinerResult res = s.solve();
    ASSERT_EQ(res.status, cip::Status::Optimal);
    EXPECT_TRUE(res.solvedByPresolve);
    EXPECT_NEAR(res.cost, 2.0, 1e-6);
    EXPECT_EQ(res.originalEdges.size(), 2u);
}

TEST(SteinerSolverTest, SolutionEdgesAreConsistent) {
    Graph g = randomConnectedInstance(22, 6, 77);
    SteinerSolver s(g);
    SteinerResult res = s.solve();
    ASSERT_EQ(res.status, cip::Status::Optimal);
    // Returned original edges span the terminals and match the cost.
    EXPECT_TRUE(g.spansTerminals(res.originalEdges));
    EXPECT_NEAR(g.costOf(res.originalEdges), res.cost, 1e-6);
    EXPECT_NEAR(res.dualBound, res.cost, 1e-6);
}

// Property: branch-and-cut matches the DP oracle across random instances.
class SteinerSolverVsDp : public ::testing::TestWithParam<int> {};

TEST_P(SteinerSolverVsDp, MatchesOracle) {
    const int seed = GetParam();
    for (int rep = 0; rep < 2; ++rep) {
        Graph g = randomConnectedInstance(20, 5, seed * 31 + rep);
        auto opt = steinerDpOptimal(g);
        ASSERT_TRUE(opt.has_value());
        SteinerSolver s(g);
        SteinerResult res = s.solve();
        ASSERT_EQ(res.status, cip::Status::Optimal)
            << "seed=" << seed << " rep=" << rep;
        EXPECT_NEAR(res.cost, *opt, 1e-6) << "seed=" << seed << " rep=" << rep;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SteinerSolverVsDp,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(SteinerSolverTest, VertexBranchingOnAndOffAgree) {
    Graph g = genHypercube(4, true, 5);
    auto opt = steinerDpOptimal(g);
    ASSERT_TRUE(opt.has_value());
    for (bool vb : {true, false}) {
        SteinerSolver s(g);
        cip::ParamSet p;
        p.setBool("stp/vertexbranching", vb);
        SteinerResult res = s.solve(p);
        ASSERT_EQ(res.status, cip::Status::Optimal) << "vb=" << vb;
        EXPECT_NEAR(res.cost, *opt, 1e-6) << "vb=" << vb;
    }
}

TEST(SteinerSolverTest, LayeredPresolveOnAndOffAgree) {
    Graph g = genCodeCover(3, 3, true, 2);
    SteinerSolver s1(g), s2(g);
    cip::ParamSet pOn, pOff;
    pOn.setBool("stp/layeredpresolve", true);
    pOff.setBool("stp/layeredpresolve", false);
    SteinerResult r1 = s1.solve(pOn);
    SteinerResult r2 = s2.solve(pOff);
    ASSERT_EQ(r1.status, cip::Status::Optimal);
    ASSERT_EQ(r2.status, cip::Status::Optimal);
    EXPECT_NEAR(r1.cost, r2.cost, 1e-6);
}

TEST(SteinerSolverTest, HypercubeUnitCosts) {
    // hc4u: terminals are the 8 even-parity vertices of Q4; optimum is known
    // to equal the DP result.
    Graph g = genHypercube(4, false);
    auto opt = steinerDpOptimal(g, 8);
    ASSERT_TRUE(opt.has_value());
    SteinerSolver s(g);
    SteinerResult res = s.solve();
    ASSERT_EQ(res.status, cip::Status::Optimal);
    EXPECT_NEAR(res.cost, *opt, 1e-6);
}
