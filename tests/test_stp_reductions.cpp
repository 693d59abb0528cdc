// Tests for the reduction package and the persistent ReduceEngine:
//   * randomized optimum preservation of the individual reduction tests
//     against the exact-DP oracle,
//   * warm-started dual ascent equivalence/validity,
//   * engine incremental sync (skip, delete/restore, vertex branches) and
//     optimum preservation across resyncs,
//   * end-to-end solver equivalence between the incremental engine, the
//     legacy per-node pass, and reduced-cost fixing on/off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "cip/solver.hpp"
#include "steiner/dualascent.hpp"
#include "steiner/exactdp.hpp"
#include "steiner/graph.hpp"
#include "steiner/heuristics.hpp"
#include "steiner/instances.hpp"
#include "steiner/reduceengine.hpp"
#include "steiner/reductions.hpp"
#include "steiner/stpmodel.hpp"
#include "steiner/stpsolver.hpp"

namespace steiner {
namespace {

// Small random instances with few terminals so the DP oracle is exact.
Graph smallRandom(unsigned seed) {
    return seed % 2 == 0 ? genGeometric(22, 6, 0.42, seed)
                         : genGrid(6, 4, 5, seed);
}

void setEdgeUb(const SapInstance& inst, std::vector<double>& ub, int e,
               double val) {
    for (int dir = 0; dir < 2; ++dir) {
        const int var = inst.arcVar[2 * static_cast<std::size_t>(e) + dir];
        if (var >= 0) ub[static_cast<std::size_t>(var)] = val;
    }
}

// Mirror the propagator: engine deletions become arc fixings, so the next
// pass's bounds agree with the working graph.
void foldDeletions(const SapInstance& inst,
                   const ReduceEngine::RunResult& res,
                   std::vector<double>& ub) {
    for (int e : res.inheritedDeleted) setEdgeUb(inst, ub, e, 0.0);
    for (int e : res.localDeleted) setEdgeUb(inst, ub, e, 0.0);
}

// The node-induced subgraph the engine is supposed to be synced to.
Graph nodeSubgraph(const SapInstance& inst, const std::vector<double>& ub) {
    Graph g = inst.graph;
    for (int e = 0; e < g.numEdges(); ++e) {
        if (g.edge(e).deleted) continue;
        const int v0 = inst.arcVar[2 * static_cast<std::size_t>(e)];
        const int v1 = inst.arcVar[2 * static_cast<std::size_t>(e) + 1];
        const bool usable =
            (v0 >= 0 && ub[static_cast<std::size_t>(v0)] > 0.5) ||
            (v1 >= 0 && ub[static_cast<std::size_t>(v1)] > 0.5);
        if (!usable) g.deleteEdge(e);
    }
    return g;
}

bool containsEdge(const std::vector<int>& v, int e) {
    return std::find(v.begin(), v.end(), e) != v.end();
}

TEST(StpReductions, DegreeTestsPreserveOptimum) {
    int exercised = 0;
    for (unsigned seed = 1; seed <= 10; ++seed) {
        Graph g = smallRandom(seed);
        const auto before = steinerDpOptimal(g);
        if (!before) continue;  // generator produced a disconnected instance
        Graph h = g;
        ReductionStats st;
        degreeTests(h, st);
        const auto after = steinerDpOptimal(h);
        ASSERT_TRUE(after.has_value()) << seed;
        EXPECT_NEAR(*before, st.fixedCost + *after, 1e-6) << seed;
        ++exercised;
    }
    EXPECT_GE(exercised, 3);
}

TEST(StpReductions, SdTestPreservesOptimumAndDeletesOnly) {
    int exercised = 0;
    for (unsigned seed = 1; seed <= 10; ++seed) {
        Graph g = smallRandom(seed);
        const auto before = steinerDpOptimal(g);
        if (!before) continue;
        Graph h = g;
        ReductionStats st;
        sdTest(h, st);
        EXPECT_EQ(st.fixedCost, 0.0) << seed;  // deletion-only test
        const auto after = steinerDpOptimal(h);
        ASSERT_TRUE(after.has_value()) << seed;
        EXPECT_NEAR(*before, *after, 1e-6) << seed;
        ++exercised;
    }
    EXPECT_GE(exercised, 3);
}

TEST(StpReductions, BoundBasedTestPreservesOptimum) {
    int exercised = 0;
    for (unsigned seed = 1; seed <= 10; ++seed) {
        Graph g = smallRandom(seed);
        const auto before = steinerDpOptimal(g);
        if (!before) continue;
        const HeuristicSolution heur = primalHeuristic(g);
        ASSERT_TRUE(heur.valid()) << seed;
        ASSERT_GE(heur.cost, *before - 1e-6) << seed;
        Graph h = g;
        ReductionStats st;
        boundBasedTest(h, st, heur.cost, /*useExtended=*/true);
        const auto after = steinerDpOptimal(h);
        ASSERT_TRUE(after.has_value()) << seed;
        EXPECT_NEAR(*before, *after, 1e-6) << seed;
        ++exercised;
    }
    EXPECT_GE(exercised, 3);
}

TEST(StpReductions, WarmAscentFromRawCostsMatchesColdAscent) {
    for (unsigned seed : {3u, 7u, 11u}) {
        Graph g = genHypercube(4, true, seed);
        const DualAscentResult cold = dualAscent(g);
        ASSERT_FALSE(cold.disconnected) << seed;
        std::vector<double> raw(2 * static_cast<std::size_t>(g.numEdges()),
                                kInfCost);
        for (int e = 0; e < g.numEdges(); ++e) {
            if (g.edge(e).deleted) continue;
            raw[2 * static_cast<std::size_t>(e)] = g.edge(e).cost;
            raw[2 * static_cast<std::size_t>(e) + 1] = g.edge(e).cost;
        }
        const DualAscentResult warm = dualAscentWarm(g, raw, 0.0);
        EXPECT_EQ(cold.disconnected, warm.disconnected) << seed;
        EXPECT_DOUBLE_EQ(cold.lowerBound, warm.lowerBound) << seed;
        EXPECT_EQ(cold.cuts.size(), warm.cuts.size()) << seed;
        ASSERT_EQ(cold.redCost.size(), warm.redCost.size()) << seed;
        for (int e = 0; e < g.numEdges(); ++e) {
            if (g.edge(e).deleted) continue;
            for (int dir = 0; dir < 2; ++dir) {
                const std::size_t a = 2 * static_cast<std::size_t>(e) + dir;
                EXPECT_DOUBLE_EQ(cold.redCost[a], warm.redCost[a])
                    << seed << " arc " << a;
            }
        }
    }
}

TEST(StpReductions, WarmAscentAfterDeletionsStaysValid) {
    for (unsigned seed : {2u, 5u, 8u}) {
        Graph g = genHypercube(4, true, seed);
        const DualAscentResult cold = dualAscent(g);
        ASSERT_FALSE(cold.disconnected) << seed;
        // Delete a third of the non-tree edges: terminals stay connected via
        // the heuristic tree, and the warm-start invariant (usable edges are
        // a subset of the ascent graph's) holds.
        const HeuristicSolution keep = primalHeuristic(g);
        ASSERT_TRUE(keep.valid()) << seed;
        std::vector<char> inTree(static_cast<std::size_t>(g.numEdges()), 0);
        for (int e : keep.edges) inTree[static_cast<std::size_t>(e)] = 1;
        Graph h = g;
        int k = 0;
        for (int e = 0; e < h.numEdges(); ++e) {
            if (h.edge(e).deleted || inTree[static_cast<std::size_t>(e)])
                continue;
            if (++k % 3 == 0) h.deleteEdge(e);
        }
        const auto opt = steinerDpOptimal(h);
        ASSERT_TRUE(opt.has_value()) << seed;
        const DualAscentResult warm =
            dualAscentWarm(h, cold.redCost, cold.lowerBound);
        EXPECT_FALSE(warm.disconnected) << seed;
        // Valid bound: no worse than the start, never above the optimum.
        EXPECT_GE(warm.lowerBound, cold.lowerBound - 1e-9) << seed;
        EXPECT_LE(warm.lowerBound, *opt + 1e-6) << seed;
        for (int e = 0; e < h.numEdges(); ++e) {
            if (h.edge(e).deleted) continue;
            for (int dir = 0; dir < 2; ++dir) {
                const std::size_t a = 2 * static_cast<std::size_t>(e) + dir;
                EXPECT_GE(warm.redCost[a], -1e-9) << seed << " arc " << a;
            }
        }
    }
}

TEST(StpReduceEngine, SkipsUnchangedNodeAndResyncsDeltas) {
    Graph g = genHypercube(4, true, 3);
    ReductionStats rs;
    SapInstance inst = buildSapInstance(g, rs);
    ASSERT_FALSE(inst.trivial());
    ReduceEngine eng(inst);
    std::vector<double> ub(static_cast<std::size_t>(inst.model.numVars()),
                           1.0);

    const auto r1 = eng.run(ub, {}, kInfCost, true, {});
    EXPECT_TRUE(r1.ran);
    EXPECT_TRUE(eng.ascentCached());
    foldDeletions(inst, r1, ub);

    // Unchanged bounds + no better incumbent: clean skip, no recompute.
    const auto r2 = eng.run(ub, {}, kInfCost, true, {});
    EXPECT_FALSE(r2.ran);
    EXPECT_GE(eng.stats().lbSkips, 1);

    // Tighten one live edge's arcs: the sync must delete exactly that edge.
    int target = -1;
    for (int e = 0; e < g.numEdges(); ++e) {
        if (eng.workGraph().edge(e).deleted) continue;
        if (inst.arcVar[2 * static_cast<std::size_t>(e)] >= 0 ||
            inst.arcVar[2 * static_cast<std::size_t>(e) + 1] >= 0) {
            target = e;
            break;
        }
    }
    ASSERT_GE(target, 0);
    setEdgeUb(inst, ub, target, 0.0);
    const auto r3 = eng.run(ub, {}, kInfCost, true, {});
    EXPECT_TRUE(r3.ran);
    EXPECT_TRUE(eng.workGraph().edge(target).deleted);
    foldDeletions(inst, r3, ub);

    // Restore it: the cached ascent never saw the edge, so the engine must
    // invalidate the cache and warm-start a fresh ascent.
    const std::int64_t warmBefore = eng.stats().daWarmStarts;
    setEdgeUb(inst, ub, target, 1.0);
    const auto r4 = eng.run(ub, {}, kInfCost, true, {});
    EXPECT_TRUE(r4.ran);
    EXPECT_GT(eng.stats().daWarmStarts, warmBefore);
    // Active again unless a reduction test re-deleted it — in which case the
    // deletion must be reported so the caller can fix the arcs.
    const bool redeleted = containsEdge(r4.inheritedDeleted, target) ||
                           containsEdge(r4.localDeleted, target);
    EXPECT_EQ(eng.workGraph().edge(target).deleted, redeleted);
    foldDeletions(inst, r4, ub);

    // Vertex branch "make v a terminal": synced in, then dropping it again
    // invalidates the cached ascent (its cuts may have been raised for v).
    int v = -1;
    for (int u = 0; u < g.numVertices(); ++u) {
        if (g.vertexAlive(u) && !g.isTerminal(u) &&
            eng.workGraph().degree(u) > 0) {
            v = u;
            break;
        }
    }
    ASSERT_GE(v, 0);
    std::vector<signed char> flag(static_cast<std::size_t>(g.numVertices()),
                                  -1);
    flag[static_cast<std::size_t>(v)] = 1;
    const auto r5 = eng.run(ub, flag, kInfCost, true, {});
    EXPECT_TRUE(r5.ran);
    EXPECT_TRUE(eng.workGraph().isTerminal(v));
    foldDeletions(inst, r5, ub);
    flag[static_cast<std::size_t>(v)] = -1;
    const auto r6 = eng.run(ub, flag, kInfCost, true, {});
    EXPECT_TRUE(r6.ran);
    EXPECT_FALSE(eng.workGraph().isTerminal(v));
}

TEST(StpReduceEngine, PreservesNodeSubgraphOptimumAcrossResyncs) {
    for (unsigned seed : {1u, 5u, 9u}) {
        Graph g = genHypercube(4, true, seed);
        ReductionStats rs;
        SapInstance inst = buildSapInstance(g, rs);
        ReduceEngine eng(inst);
        std::vector<double> ub(
            static_cast<std::size_t>(inst.model.numVars()), 1.0);
        const HeuristicSolution keep = primalHeuristic(g);
        ASSERT_TRUE(keep.valid()) << seed;
        std::vector<char> inTree(static_cast<std::size_t>(g.numEdges()), 0);
        for (int e : keep.edges) inTree[static_cast<std::size_t>(e)] = 1;
        int checked = 0;
        for (int step = 0; step < 3; ++step) {
            const auto nodeOpt = steinerDpOptimal(nodeSubgraph(inst, ub));
            const auto res = eng.run(ub, {}, kInfCost, true, {});
            if (nodeOpt) {
                // All engine deletions are optimum-preserving, so the work
                // graph must keep the node subgraph's optimum exactly.
                const auto engOpt = steinerDpOptimal(eng.workGraph());
                ASSERT_TRUE(engOpt.has_value()) << seed << " step " << step;
                EXPECT_NEAR(*nodeOpt, *engOpt, 1e-6)
                    << seed << " step " << step;
                ++checked;
            }
            foldDeletions(inst, res, ub);
            // Tighten a deterministic batch of non-tree edges for the next
            // step (the heuristic tree keeps the terminals connected).
            int k = 0;
            for (int e = 0; e < g.numEdges() && k < 6; ++e) {
                if (inTree[static_cast<std::size_t>(e)] ||
                    eng.workGraph().edge(e).deleted)
                    continue;
                if ((e + step) % 4 == 0) {
                    setEdgeUb(inst, ub, e, 0.0);
                    ++k;
                }
            }
        }
        EXPECT_GE(checked, 2) << seed;
    }
}

TEST(StpReduceEngine, SolverModesReachIdenticalOptima) {
    for (unsigned seed : {2u, 6u}) {
        Graph g = genHypercube(4, true, seed);
        SteinerSolver incremental(g), noFix(g);
        cip::ParamSet pIncr;  // defaults: engine + LP reduced-cost fixing on
        cip::ParamSet pNoFix;  // engine on, generic redcost fixing off
        pNoFix.setBool("propagating/redcostfix", false);
        const SteinerResult rIncr = incremental.solve(pIncr);
        const SteinerResult rNoFix = noFix.solve(pNoFix);
        ASSERT_EQ(rIncr.status, cip::Status::Optimal) << seed;
        ASSERT_EQ(rNoFix.status, cip::Status::Optimal) << seed;
        EXPECT_NEAR(rIncr.cost, rNoFix.cost, 1e-6) << seed;
    }
}

TEST(StpReduceEngine, CountersThreadThroughSolverStats) {
    std::int64_t runs = 0, warmStarts = 0, redcostCalls = 0;
    for (unsigned seed : {1u, 2u, 6u}) {
        SteinerSolver s(genHypercube(4, true, seed));
        const SteinerResult r = s.solve({});
        ASSERT_EQ(r.status, cip::Status::Optimal) << seed;
        runs += r.stats.redpropRuns;
        warmStarts += r.stats.redpropDaWarmStarts;
        redcostCalls += r.stats.redcostCalls;
    }
    EXPECT_GT(runs, 0);
    EXPECT_GT(warmStarts, 0);
    EXPECT_GT(redcostCalls, 0);
}

}  // namespace
}  // namespace steiner
