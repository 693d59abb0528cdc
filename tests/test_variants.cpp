// Steiner problem variants (RPCSTP / NWSTP / DCSTP / GSTP) against
// brute-force subset-enumeration oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <queue>
#include <random>
#include <string>

#include "steiner/instances.hpp"
#include "steiner/variants.hpp"
#include "ugcip/stp_plugins.hpp"

using namespace steiner;

namespace {

/// Connectivity of an edge subset; returns the set of covered vertices (or
/// empty if the subset is not connected / not a forest spanning them).
std::vector<int> connectedVertices(const Graph& g,
                                   const std::vector<int>& edges,
                                   int mustContain) {
    if (edges.empty()) {
        return mustContain >= 0 ? std::vector<int>{mustContain}
                                : std::vector<int>{};
    }
    std::vector<std::vector<int>> nbr(g.numVertices());
    for (int e : edges) {
        nbr[g.edge(e).u].push_back(g.edge(e).v);
        nbr[g.edge(e).v].push_back(g.edge(e).u);
    }
    int start = mustContain >= 0 ? mustContain : g.edge(edges[0]).u;
    if (mustContain >= 0 && nbr[mustContain].empty() &&
        !edges.empty())
        return {};  // root not touched by the edges
    std::vector<bool> seen(g.numVertices(), false);
    std::queue<int> q;
    q.push(start);
    seen[start] = true;
    int seenEdgesTwice = 0;
    while (!q.empty()) {
        int v = q.front();
        q.pop();
        for (int w : nbr[v]) {
            ++seenEdgesTwice;
            if (!seen[w]) {
                seen[w] = true;
                q.push(w);
            }
        }
    }
    // All chosen edges must lie in the visited component.
    for (int e : edges)
        if (!seen[g.edge(e).u] || !seen[g.edge(e).v]) return {};
    std::vector<int> verts;
    for (int v = 0; v < g.numVertices(); ++v)
        if (seen[v]) verts.push_back(v);
    return verts;
}

Graph smallGraph(unsigned seed, int n = 6, int extraEdges = 4) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> cost(1.0, 5.0);
    Graph g(n);
    // Spanning cycle + random chords: connected, modest edge count.
    for (int v = 0; v < n; ++v)
        g.addEdge(v, (v + 1) % n, std::floor(cost(rng) * 2) / 2.0);
    std::uniform_int_distribution<int> pick(0, n - 1);
    for (int k = 0; k < extraEdges; ++k) {
        int a = pick(rng), b = pick(rng);
        if (a == b || (std::abs(a - b) == 1) || std::abs(a - b) == n - 1)
            continue;
        g.addEdge(a, b, std::floor(cost(rng) * 2) / 2.0);
    }
    return g;
}

}  // namespace

// --- RPCSTP -------------------------------------------------------------------

class PrizeCollecting : public ::testing::TestWithParam<int> {};

TEST_P(PrizeCollecting, MatchesBruteForce) {
    std::mt19937 rng(GetParam() * 17 + 5);
    std::uniform_real_distribution<double> prize(0.0, 6.0);
    for (int rep = 0; rep < 3; ++rep) {
        PrizeCollectingProblem prob;
        prob.graph = smallGraph(GetParam() * 100 + rep);
        prob.prize.assign(prob.graph.numVertices(), 0.0);
        for (int v = 0; v < prob.graph.numVertices(); ++v)
            if (v % 2 == 1) prob.prize[v] = std::floor(prize(rng) * 2) / 2.0;
        prob.root = 0;

        // Oracle: enumerate edge subsets.
        const int m = prob.graph.numEdges();
        ASSERT_LE(m, 16);
        double best = 1e100;
        for (int mask = 0; mask < (1 << m); ++mask) {
            std::vector<int> edges;
            double c = 0;
            for (int e = 0; e < m; ++e)
                if (mask & (1 << e)) {
                    edges.push_back(e);
                    c += prob.graph.edge(e).cost;
                }
            std::vector<int> verts =
                connectedVertices(prob.graph, edges, prob.root);
            if (verts.empty() && !edges.empty()) continue;
            std::vector<bool> in(prob.graph.numVertices(), false);
            for (int v : verts) in[v] = true;
            in[prob.root] = true;
            double forfeit = 0;
            for (int v = 0; v < prob.graph.numVertices(); ++v)
                if (!in[v]) forfeit += prob.prize[v];
            best = std::min(best, c + forfeit);
        }

        SapInstance inst = buildPrizeCollectingSap(prob);
        SteinerResult res = solveVariant(inst);
        ASSERT_EQ(res.status, cip::Status::Optimal)
            << "seed=" << GetParam() << " rep=" << rep;
        EXPECT_NEAR(res.cost, best, 1e-5)
            << "seed=" << GetParam() << " rep=" << rep;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrizeCollecting, ::testing::Values(1, 2, 3, 4));

// --- NWSTP --------------------------------------------------------------------

class NodeWeighted : public ::testing::TestWithParam<int> {};

TEST_P(NodeWeighted, MatchesBruteForce) {
    std::mt19937 rng(GetParam() * 31 + 7);
    std::uniform_real_distribution<double> w(0.0, 4.0);
    for (int rep = 0; rep < 3; ++rep) {
        NodeWeightedProblem prob;
        prob.graph = smallGraph(GetParam() * 200 + rep);
        prob.graph.setTerminal(0, true);
        prob.graph.setTerminal(3, true);
        prob.graph.setTerminal(5, true);
        prob.nodeCost.assign(prob.graph.numVertices(), 0.0);
        for (int v = 0; v < prob.graph.numVertices(); ++v)
            prob.nodeCost[v] = std::floor(w(rng) * 2) / 2.0;

        const int m = prob.graph.numEdges();
        double best = 1e100;
        for (int mask = 0; mask < (1 << m); ++mask) {
            std::vector<int> edges;
            double c = 0;
            for (int e = 0; e < m; ++e)
                if (mask & (1 << e)) {
                    edges.push_back(e);
                    c += prob.graph.edge(e).cost;
                }
            if (!prob.graph.spansTerminals(edges)) continue;
            std::vector<int> verts = connectedVertices(prob.graph, edges, 0);
            if (verts.empty()) continue;
            double nodes = 0;
            for (int v : verts) nodes += prob.nodeCost[v];
            best = std::min(best, c + nodes);
        }

        SapInstance inst = buildNodeWeightedSap(prob);
        SteinerResult res = solveVariant(inst);
        ASSERT_EQ(res.status, cip::Status::Optimal)
            << "seed=" << GetParam() << " rep=" << rep;
        EXPECT_NEAR(res.cost, best, 1e-5)
            << "seed=" << GetParam() << " rep=" << rep;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeWeighted, ::testing::Values(1, 2, 3, 4));

// --- DCSTP --------------------------------------------------------------------

class DegreeConstrained : public ::testing::TestWithParam<int> {};

namespace {

/// Cheapest edge subset that spans the terminals within the degree bounds
/// (maxDegree <= 0: unconstrained), by subset enumeration; 1e100 if none.
double degreeConstrainedBruteForce(const DegreeConstrainedProblem& prob) {
    const Graph& g = prob.graph;
    const int m = g.numEdges();
    double best = 1e100;
    std::vector<int> edges;
    std::vector<int> deg(g.numVertices());
    for (long mask = 0; mask < (1L << m); ++mask) {
        edges.clear();
        std::fill(deg.begin(), deg.end(), 0);
        double c = 0;
        bool ok = true;
        for (int e = 0; e < m && ok; ++e) {
            if (!(mask & (1L << e))) continue;
            edges.push_back(e);
            c += g.edge(e).cost;
            for (int v : {g.edge(e).u, g.edge(e).v})
                if (prob.maxDegree[v] > 0 && ++deg[v] > prob.maxDegree[v])
                    ok = false;
        }
        if (ok && c < best && g.spansTerminals(edges)) best = c;
    }
    return best;
}

void expectSolveMatchesBruteForce(const DegreeConstrainedProblem& prob,
                                  const std::string& label) {
    const double best = degreeConstrainedBruteForce(prob);
    SapInstance inst = buildDegreeConstrainedSap(prob);
    SteinerResult res = solveVariant(inst);
    // Gadget graphs run without the reduction package (the builder marks
    // the instance): no pass may run, no arc may be fixed by it.
    EXPECT_EQ(res.stats.redpropRuns, 0) << label;
    EXPECT_EQ(res.stats.redpropArcsFixed, 0) << label;
    if (best >= 1e99) {
        EXPECT_NE(res.status, cip::Status::Optimal) << label;
        return;
    }
    ASSERT_EQ(res.status, cip::Status::Optimal) << label;
    EXPECT_NEAR(res.cost, best, 1e-5) << label;
}

/// Instances on which in-tree reductions returned a wrong Optimal (17, 25
/// and 19 against optima 16, 22 and 18.5): smallGraph(seed, n, n) with
/// terminals on even vertices and degree bound 2 on odd ones.
struct DcRegression {
    unsigned seed;
    int n;
};
constexpr DcRegression kDcRegressions[] = {{177, 8}, {240, 12}, {261, 10}};

}  // namespace

TEST_P(DegreeConstrained, MatchesBruteForce) {
    for (int rep = 0; rep < 3; ++rep) {
        DegreeConstrainedProblem prob;
        prob.graph = smallGraph(GetParam() * 300 + rep);
        prob.graph.setTerminal(0, true);
        prob.graph.setTerminal(2, true);
        prob.graph.setTerminal(4, true);
        prob.maxDegree.assign(prob.graph.numVertices(), 2);
        expectSolveMatchesBruteForce(
            prob, "seed=" + std::to_string(GetParam()) +
                      " rep=" + std::to_string(rep));
    }
    // One regression instance per parameter, while they last.
    const std::size_t k = static_cast<std::size_t>(GetParam() - 1);
    if (k >= std::size(kDcRegressions)) return;
    const DcRegression& r = kDcRegressions[k];
    DegreeConstrainedProblem prob;
    prob.graph = smallGraph(r.seed, r.n, r.n);
    prob.maxDegree.assign(r.n, 0);
    for (int v = 0; v < r.n; ++v) {
        if (v % 2 == 0)
            prob.graph.setTerminal(v, true);
        else
            prob.maxDegree[v] = 2;
    }
    const std::string label = "regression seed=" + std::to_string(r.seed) +
                              " n=" + std::to_string(r.n);
    expectSolveMatchesBruteForce(prob, label);
    // The same instance solved in parallel: the reduction package stays off
    // there too, without any parameter from the caller.
    const double best = degreeConstrainedBruteForce(prob);
    const SapInstance inst = buildDegreeConstrainedSap(prob);
    for (int ranks : {1, 4}) {
        ug::UgConfig cfg;
        cfg.numSolvers = ranks;
        const ug::UgResult res =
            ugcip::solveSteinerParallel(inst, cfg, /*simulated=*/true);
        ASSERT_EQ(res.status, ug::UgStatus::Optimal)
            << label << " ranks=" << ranks << ": "
            << ug::toString(res.status);
        EXPECT_NEAR(res.best.obj, best, 1e-5) << label << " ranks=" << ranks;
        EXPECT_EQ(res.stats.redpropRuns, 0) << label << " ranks=" << ranks;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegreeConstrained,
                         ::testing::Values(1, 2, 3, 4));

// --- GSTP ---------------------------------------------------------------------

class GroupSteiner : public ::testing::TestWithParam<int> {};

TEST_P(GroupSteiner, MatchesBruteForce) {
    for (int rep = 0; rep < 3; ++rep) {
        GroupSteinerProblem prob;
        prob.graph = smallGraph(GetParam() * 400 + rep);
        prob.groups = {{0, 1}, {2, 3}, {4, 5}};

        const int m = prob.graph.numEdges();
        double best = 1e100;
        for (int mask = 0; mask < (1 << m); ++mask) {
            std::vector<int> edges;
            double c = 0;
            for (int e = 0; e < m; ++e)
                if (mask & (1 << e)) {
                    edges.push_back(e);
                    c += prob.graph.edge(e).cost;
                }
            // Single-vertex solutions: a vertex shared by all groups (none
            // here), otherwise need edges; test all anchored components.
            bool ok = false;
            for (int anchor = 0; anchor < prob.graph.numVertices() && !ok;
                 ++anchor) {
                std::vector<int> verts =
                    connectedVertices(prob.graph, edges, anchor);
                if (verts.empty()) continue;
                std::vector<bool> in(prob.graph.numVertices(), false);
                for (int v : verts) in[v] = true;
                bool all = true;
                for (const auto& grp : prob.groups) {
                    bool hit = false;
                    for (int v : grp) hit |= in[v];
                    all &= hit;
                }
                ok = all;
            }
            if (ok) best = std::min(best, c);
        }

        SapInstance inst = buildGroupSteinerSap(prob);
        SteinerResult res = solveVariant(inst);
        ASSERT_EQ(res.status, cip::Status::Optimal)
            << "seed=" << GetParam() << " rep=" << rep;
        EXPECT_NEAR(res.cost, best, 1e-5)
            << "seed=" << GetParam() << " rep=" << rep;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupSteiner, ::testing::Values(1, 2, 3, 4));

// --- structural checks ----------------------------------------------------------

TEST(Variants, PrizeCollectingGadgetStructure) {
    PrizeCollectingProblem prob;
    prob.graph = Graph(3);
    prob.graph.addEdge(0, 1, 1.0);
    prob.graph.addEdge(1, 2, 1.0);
    prob.prize = {0.0, 0.0, 5.0};
    prob.root = 0;
    SapInstance inst = buildPrizeCollectingSap(prob);
    // One gadget terminal for vertex 2.
    EXPECT_EQ(inst.graph.numVertices(), 4);
    EXPECT_EQ(inst.root, 0);
    EXPECT_EQ(inst.graph.numTerminals(), 2);  // root + gadget
    // Cheapest: collect 2 via edges (cost 2) < forfeit 5.
    SteinerResult res = solveVariant(inst);
    ASSERT_EQ(res.status, cip::Status::Optimal);
    EXPECT_NEAR(res.cost, 2.0, 1e-6);
}

TEST(Variants, PrizeCollectingForfeitsCheapPrizes) {
    PrizeCollectingProblem prob;
    prob.graph = Graph(2);
    prob.graph.addEdge(0, 1, 10.0);
    prob.prize = {0.0, 1.0};  // collecting costs 10, forfeiting 1
    prob.root = 0;
    SapInstance inst = buildPrizeCollectingSap(prob);
    SteinerResult res = solveVariant(inst);
    ASSERT_EQ(res.status, cip::Status::Optimal);
    EXPECT_NEAR(res.cost, 1.0, 1e-6);
}

TEST(Variants, NodeWeightsSteerVertexChoice) {
    // Two parallel 2-hop routes 0-1-3 / 0-2-3, same edge costs; vertex 2 is
    // heavy, so the tree must route through vertex 1.
    NodeWeightedProblem prob;
    prob.graph = Graph(4);
    prob.graph.addEdge(0, 1, 1.0);
    prob.graph.addEdge(1, 3, 1.0);
    prob.graph.addEdge(0, 2, 1.0);
    prob.graph.addEdge(2, 3, 1.0);
    prob.graph.setTerminal(0, true);
    prob.graph.setTerminal(3, true);
    prob.nodeCost = {0.0, 1.0, 7.0, 0.0};
    SapInstance inst = buildNodeWeightedSap(prob);
    SteinerResult res = solveVariant(inst);
    ASSERT_EQ(res.status, cip::Status::Optimal);
    EXPECT_NEAR(res.cost, 3.0, 1e-6);  // 2 edges + node 1
}

TEST(Variants, DegreeBoundForcesDetour) {
    // Star center 0 with terminals 1,2,3 but degree(0) <= 2: must use the
    // expensive rim edge for the third terminal.
    DegreeConstrainedProblem prob;
    prob.graph = Graph(4);
    prob.graph.addEdge(0, 1, 1.0);
    prob.graph.addEdge(0, 2, 1.0);
    prob.graph.addEdge(0, 3, 1.0);
    prob.graph.addEdge(1, 3, 2.5);
    prob.graph.setTerminal(1, true);
    prob.graph.setTerminal(2, true);
    prob.graph.setTerminal(3, true);
    prob.maxDegree = {2, 3, 3, 3};
    SapInstance inst = buildDegreeConstrainedSap(prob);
    SteinerResult res = solveVariant(inst);
    ASSERT_EQ(res.status, cip::Status::Optimal);
    EXPECT_NEAR(res.cost, 4.5, 1e-6);  // 1 + 1 + 2.5 instead of 3.0
}

TEST(Variants, GroupSteinerPicksCheapRepresentatives) {
    // Path 0-1-2-3; groups {0,3} and {2}: connect 2 with 3 (cost 1) or with
    // 0 (cost 2) — the gadget must pick the cheap representative.
    GroupSteinerProblem prob;
    prob.graph = Graph(4);
    prob.graph.addEdge(0, 1, 1.0);
    prob.graph.addEdge(1, 2, 1.0);
    prob.graph.addEdge(2, 3, 1.0);
    prob.groups = {{0, 3}, {2}};
    SapInstance inst = buildGroupSteinerSap(prob);
    SteinerResult res = solveVariant(inst);
    ASSERT_EQ(res.status, cip::Status::Optimal);
    EXPECT_NEAR(res.cost, 1.0, 1e-6);  // tree {2,3} hits both groups
}
