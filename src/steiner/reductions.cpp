#include "steiner/reductions.hpp"

#include <algorithm>
#include <queue>

#include "steiner/dualascent.hpp"
#include "steiner/heuristics.hpp"
#include "steiner/shortest.hpp"

namespace steiner {

namespace {

/// Delete dominated parallel edges at vertex v (keep cheapest per neighbor).
long long dedupParallel(Graph& g, int v) {
    long long deleted = 0;
    // neighbor -> best edge
    std::vector<std::pair<int, int>> best;  // (neighbor, edge)
    std::vector<int> inc = g.incident(v);
    for (int e : inc) {
        if (g.edge(e).deleted) continue;
        const int w = g.edge(e).other(v);
        bool found = false;
        for (auto& [nb, be] : best) {
            if (nb == w) {
                found = true;
                if (g.edge(e).cost < g.edge(be).cost) {
                    g.deleteEdge(be);
                    be = e;
                } else {
                    g.deleteEdge(e);
                }
                ++deleted;
                break;
            }
        }
        if (!found) best.emplace_back(w, e);
    }
    return deleted;
}

}  // namespace

void degreeTests(Graph& g, ReductionStats& stats) {
    bool changed = true;
    while (changed) {
        changed = false;
        for (int v = 0; v < g.numVertices(); ++v) {
            if (!g.vertexAlive(v)) continue;
            stats.edgesDeleted += dedupParallel(g, v);
            const int deg = g.degree(v);
            if (g.isTerminal(v)) {
                if (deg == 1 && g.numTerminals() > 1) {
                    // The unique edge of a degree-1 terminal is in every
                    // feasible solution: contract and fix it.
                    int e = -1;
                    for (int cand : g.incident(v))
                        if (!g.edge(cand).deleted) {
                            e = cand;
                            break;
                        }
                    const int to = g.edge(e).other(v);
                    stats.fixedCost += g.edge(e).cost;
                    for (int o : g.edge(e).origin)
                        stats.fixedOriginalEdges.push_back(o);
                    g.contractEdge(e, to);
                    ++stats.verticesRemoved;
                    ++stats.edgesDeleted;
                    changed = true;
                }
                continue;
            }
            if (deg == 0) {
                g.deleteVertex(v);
                ++stats.verticesRemoved;
                changed = true;
            } else if (deg == 1) {
                // Dangling non-terminal: never useful.
                for (int e : std::vector<int>(g.incident(v)))
                    if (!g.edge(e).deleted) g.deleteEdge(e);
                g.deleteVertex(v);
                ++stats.verticesRemoved;
                ++stats.edgesDeleted;
                changed = true;
            } else if (deg == 2) {
                // Path-through vertex: replace the two edges by one.
                int e1 = -1, e2 = -1;
                for (int e : g.incident(v)) {
                    if (g.edge(e).deleted) continue;
                    (e1 < 0 ? e1 : e2) = e;
                }
                const int a = g.edge(e1).other(v);
                const int b = g.edge(e2).other(v);
                const double c = g.edge(e1).cost + g.edge(e2).cost;
                std::vector<int> origin = g.edge(e1).origin;
                origin.insert(origin.end(), g.edge(e2).origin.begin(),
                              g.edge(e2).origin.end());
                g.deleteEdge(e1);
                g.deleteEdge(e2);
                g.deleteVertex(v);
                stats.edgesDeleted += 2;
                ++stats.verticesRemoved;
                if (a != b) {
                    const int ne = g.addEdge(a, b, c);
                    g.edge(ne).origin = std::move(origin);
                    // New parallel edges are resolved on the next sweep.
                }
                changed = true;
            }
        }
    }
}

void peelDanglingChains(Graph& g, std::vector<int>& deletedOut) {
    // Deleting a leaf edge can only turn its neighbor into the next leaf,
    // so seeding the queue with the current leaves is complete.
    std::queue<int> leaves;
    for (int v = 0; v < g.numVertices(); ++v)
        if (g.vertexAlive(v) && !g.isTerminal(v) && g.degree(v) == 1)
            leaves.push(v);
    while (!leaves.empty()) {
        const int v = leaves.front();
        leaves.pop();
        if (!g.vertexAlive(v) || g.isTerminal(v) || g.degree(v) != 1)
            continue;
        int live = -1;
        for (int e : g.incident(v))
            if (!g.edge(e).deleted) {
                live = e;
                break;
            }
        if (live < 0) continue;
        const int w = g.edge(live).other(v);
        g.deleteEdge(live);
        deletedOut.push_back(live);
        if (g.vertexAlive(w) && !g.isTerminal(w) && g.degree(w) == 1)
            leaves.push(w);
    }
}

void sdTest(Graph& g, ReductionStats& stats, int scanLimit) {
    (void)scanLimit;
    const int m = g.numEdges();
    for (int e = 0; e < m; ++e) {
        if (g.edge(e).deleted) continue;
        const int u = g.edge(e).u;
        const int v = g.edge(e).v;
        const double c = g.edge(e).cost;
        SpResult sp = dijkstraCapped(g, u, c + 1e-9, e);
        if (sp.dist[v] <= c + 1e-9) {
            // An alternative u-v path of no greater cost exists, so some
            // optimal solution avoids e.
            g.deleteEdge(e);
            ++stats.edgesDeleted;
        }
    }
}

long long boundBasedTest(Graph& g, ReductionStats& stats, double upperBound,
                         bool useExtended) {
    if (upperBound >= kInfCost) return 0;
    DualAscentResult da = dualAscent(g);
    return boundBasedTestWithDa(g, stats, upperBound, useExtended, da);
}

long long boundBasedTestWithDa(Graph& g, ReductionStats& stats,
                               double upperBound, bool useExtended,
                               const DualAscentResult& da) {
    if (upperBound >= kInfCost) return 0;
    if (da.root < 0 || da.disconnected) return 0;
    const double lb = da.lowerBound;
    long long deleted = 0;

    // Distances from the root in the zero-rc graph would strengthen this;
    // the plain arc test is: using arc a costs at least lb + rc(a).
    auto minExtension = [&](int vertex, int fromVertex) {
        // Cheapest reduced cost of an arc leaving `vertex` not returning to
        // fromVertex (flow-balance: a used arc into a non-terminal must be
        // extended).
        double best = kInfCost;
        for (int e : g.incident(vertex)) {
            if (g.edge(e).deleted) continue;
            const int w = g.edge(e).other(vertex);
            if (w == fromVertex) continue;
            const int a = (g.edge(e).u == vertex) ? 2 * e : 2 * e + 1;
            best = std::min(best, da.redCost[a]);
        }
        return best == kInfCost ? 0.0 : best;
    };

    const int m = g.numEdges();
    const double slack = upperBound - lb;
    for (int e = 0; e < m; ++e) {
        if (g.edge(e).deleted) continue;
        const int u = g.edge(e).u;
        const int v = g.edge(e).v;
        double costUV = da.redCost[2 * e];      // u -> v
        double costVU = da.redCost[2 * e + 1];  // v -> u
        bool extendedUsed = false;
        if (useExtended) {
            // Arc u->v entering non-terminal v must be extended beyond v.
            if (!g.isTerminal(v)) {
                const double ext = minExtension(v, u);
                if (ext > 0) {
                    costUV += ext;
                    extendedUsed = true;
                }
            }
            if (!g.isTerminal(u)) {
                const double ext = minExtension(u, v);
                if (ext > 0) {
                    costVU += ext;
                    extendedUsed = true;
                }
            }
        }
        // The edge is only usable if one of its arcs is; delete when both
        // orientations exceed the primal bound. Strict inequality keeps at
        // least one optimal solution.
        if (costUV > slack + 1e-9 && costVU > slack + 1e-9) {
            g.deleteEdge(e);
            ++deleted;
            ++stats.edgesDeleted;
            if (extendedUsed) ++stats.extendedDeletions;
        }
    }
    return deleted;
}

ReductionStats presolve(Graph& g, int maxRounds, bool useExtended) {
    ReductionStats stats;
    for (int round = 0; round < maxRounds; ++round) {
        const long long before = stats.edgesDeleted + stats.verticesRemoved;
        degreeTests(g, stats);
        sdTest(g, stats);
        degreeTests(g, stats);
        if (g.numTerminals() > 1) {
            HeuristicSolution heur = primalHeuristic(g);
            if (heur.valid())
                boundBasedTest(g, stats, heur.cost, useExtended);
            degreeTests(g, stats);
        }
        if (stats.edgesDeleted + stats.verticesRemoved == before) break;
    }
    return stats;
}

}  // namespace steiner
