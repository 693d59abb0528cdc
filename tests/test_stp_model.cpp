// Second Steiner test pass: the SAP model builder, solution mapping, dual
// ascent rows as valid inequalities, the cut constraint handler in
// isolation, and the in-tree reduction propagator.
#include <gtest/gtest.h>

#include "steiner/exactdp.hpp"
#include "steiner/heuristics.hpp"
#include "steiner/instances.hpp"
#include "steiner/plugins.hpp"
#include "steiner/shortest.hpp"
#include "steiner/stpmodel.hpp"
#include "steiner/stpsolver.hpp"

using namespace steiner;

namespace {

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

SapInstance buildFor(const Graph& g) {
    Graph copy = g;
    ReductionStats none;  // model the raw graph (no presolve)
    return buildSapInstance(std::move(copy), none);
}

}  // namespace

TEST(StpModel, VariableCountSkipsRootInArcs) {
    Graph g = starInstance();
    SapInstance inst = buildFor(g);
    // 5 edges -> 10 arcs, minus arcs entering the root terminal (vertex 1
    // has degree 2 -> 2 arcs removed).
    EXPECT_EQ(inst.root, 1);
    EXPECT_EQ(inst.model.numVars(), 8);
}

TEST(StpModel, TreeSolutionRoundtrip) {
    Graph g = starInstance();
    SapInstance inst = buildFor(g);
    const std::vector<int> tree{0, 1, 2};  // the three spokes
    std::vector<double> x = treeToModelSolution(inst, tree);
    // Exactly |tree| arcs set.
    double sum = 0;
    for (double v : x) sum += v;
    EXPECT_NEAR(sum, 3.0, 1e-12);
    std::vector<int> back = modelSolutionToTree(inst, x);
    std::sort(back.begin(), back.end());
    EXPECT_EQ(back, tree);
}

TEST(StpModel, TreeSolutionSatisfiesModelRows) {
    Graph g = genHypercube(4, true, 3);
    SapInstance inst = buildFor(g);
    HeuristicSolution heur = primalHeuristic(inst.graph);
    ASSERT_TRUE(heur.valid());
    std::vector<double> x = treeToModelSolution(inst, heur.edges);
    for (int i = 0; i < inst.model.numRows(); ++i) {
        const cip::Row& r = inst.model.row(i);
        const double a = r.activity(x);
        EXPECT_GE(a, r.lhs - 1e-9) << "row " << i;
        EXPECT_LE(a, r.rhs + 1e-9) << "row " << i;
    }
}

TEST(StpModel, FixedEdgesEnterOriginalMapping) {
    // Chain forcing contractions: 0(T)-1-2(T); optimum fully fixed.
    Graph g(3);
    g.addEdge(0, 1, 1.0);
    g.addEdge(1, 2, 2.0);
    g.setTerminal(0, true);
    g.setTerminal(2, true);
    Graph reduced = g;
    ReductionStats red = presolve(reduced);
    SapInstance inst = buildSapInstance(std::move(reduced), red);
    EXPECT_TRUE(inst.trivial());
    EXPECT_NEAR(inst.fixedCost, 3.0, 1e-9);
    std::vector<int> edges = toOriginalEdges(inst, {});
    EXPECT_EQ(edges.size(), 2u);
}

TEST(StpModel, DualAscentRowsAreValidForOptimalTree) {
    // Every dual-ascent cut row must be satisfied by an optimal solution.
    Graph g = genHypercube(4, true, 7);
    SapInstance inst = buildFor(g);
    SteinerSolver solver(g);
    SteinerResult res = solver.solve();
    ASSERT_EQ(res.status, cip::Status::Optimal);
    // Map the optimal original-edge set back onto the raw-model instance.
    std::vector<int> tree;
    for (int e : res.originalEdges) tree.push_back(e);
    std::vector<double> x = treeToModelSolution(inst, tree);
    for (int i = 0; i < inst.model.numRows(); ++i) {
        const cip::Row& r = inst.model.row(i);
        if (r.lhs != 1.0) continue;  // the >= 1 cut rows
        EXPECT_GE(r.activity(x), 1.0 - 1e-9) << "cut row " << i;
    }
}

TEST(StpModel, DualAscentBoundBelowOptimum) {
    for (unsigned seed : {1u, 4u, 9u}) {
        Graph g = genHypercube(4, true, seed);
        auto opt = steinerDpOptimal(g);
        ASSERT_TRUE(opt.has_value());
        SapInstance inst = buildFor(g);
        EXPECT_LE(inst.dualAscentBound, *opt + 1e-6) << seed;
        EXPECT_GT(inst.dualAscentBound, 0.0) << seed;
    }
}

TEST(StpPlugins, ConshdlrCheckAcceptsTreeRejectsGap) {
    Graph g = starInstance();
    SapInstance inst = buildFor(g);
    cip::Solver solver;
    solver.setModel(inst.model);
    StpConshdlr handler(inst);
    std::vector<double> good = treeToModelSolution(inst, {0, 1, 2});
    EXPECT_TRUE(handler.check(solver, good));
    std::vector<double> bad(inst.model.numVars(), 0.0);
    EXPECT_FALSE(handler.check(solver, bad));
}

TEST(StpPlugins, ConshdlrSeparatesDisconnectedFractionalPoint) {
    Graph g = starInstance();
    SapInstance inst = buildFor(g);
    cip::Solver solver;
    solver.setModel(inst.model);
    installStpPlugins(solver, inst);
    solver.initSolve();
    // The solve must add cuts at some point (dual ascent rows may already
    // cover the star; at minimum the solver reaches the optimum).
    while (!solver.finished()) solver.step();
    EXPECT_EQ(solver.status(), cip::Status::Optimal);
    EXPECT_NEAR(solver.incumbent().obj, 3.0, 1e-6);
}

TEST(StpPlugins, ReductionPropagatorPreservesOptimum) {
    for (unsigned seed : {2u, 6u}) {
        Graph g = genHypercube(4, true, seed);
        SteinerSolver s1(g), s2(g);
        cip::ParamSet on, off;
        on.setInt("stp/redprop/freq", 2);
        off.setInt("stp/redprop/freq", 0);
        SteinerResult r1 = s1.solve(on);
        SteinerResult r2 = s2.solve(off);
        ASSERT_EQ(r1.status, cip::Status::Optimal);
        ASSERT_EQ(r2.status, cip::Status::Optimal);
        EXPECT_NEAR(r1.cost, r2.cost, 1e-6) << seed;
    }
}

TEST(StpPlugins, VertexBranchStateParsing) {
    Graph g = starInstance();
    SapInstance inst = buildFor(g);
    std::vector<cip::CustomBranch> cbs;
    cbs.push_back({kStpPluginName, {0, 1}});
    cbs.push_back({kStpPluginName, {2, 0}});
    cbs.push_back({"other_plugin", {3, 1}});   // ignored
    cbs.push_back({kStpPluginName, {99, 1}});  // out of range: ignored
    VertexBranchState st = parseVertexBranches(inst, cbs);
    EXPECT_EQ(st.flag[0], 1);
    EXPECT_EQ(st.flag[2], 0);
    EXPECT_EQ(st.flag[3], -1);
}

TEST(StpModel, IntegralCostsSeesLiveEdgesAndFixedCost) {
    const SapInstance hc = buildFor(genHypercube(3, true, 1));
    ASSERT_FALSE(hc.trivial());
    EXPECT_TRUE(hc.integralCosts());

    int live = 0;
    while (hc.graph.edge(live).deleted) ++live;
    SapInstance fractionalEdge = hc;
    fractionalEdge.graph.edge(live).cost = 1.5;
    EXPECT_FALSE(fractionalEdge.integralCosts());
    // A deleted edge is not part of any solution: its cost does not count.
    fractionalEdge.graph.deleteEdge(live);
    EXPECT_TRUE(fractionalEdge.integralCosts());

    SapInstance fractionalFixed = hc;
    fractionalFixed.fixedCost = 0.5;
    EXPECT_FALSE(fractionalFixed.integralCosts());
}

TEST(StpModel, TrivialInstanceHasNoModel) {
    Graph g(2);
    g.addEdge(0, 1, 5.0);
    g.setTerminal(0, true);
    g.setTerminal(1, true);
    Graph reduced = g;
    ReductionStats red = presolve(reduced);
    SapInstance inst = buildSapInstance(std::move(reduced), red);
    EXPECT_TRUE(inst.trivial());
    EXPECT_EQ(inst.model.numVars(), 0);
    EXPECT_NEAR(inst.fixedCost, 5.0, 1e-9);
}
