#include "steiner/stpmodel.hpp"

#include <cmath>
#include <queue>

#include "steiner/dualascent.hpp"

namespace steiner {

SapInstance buildSapInstance(Graph reducedGraph, const ReductionStats& red,
                             int maxInitialCuts) {
    SapInstance inst;
    inst.graph = std::move(reducedGraph);
    inst.fixedCost = red.fixedCost;
    inst.fixedOriginalEdges = red.fixedOriginalEdges;
    const Graph& g = inst.graph;
    inst.root = g.rootTerminal();
    inst.arcVar.assign(2 * static_cast<std::size_t>(g.numEdges()), -1);
    if (inst.trivial()) return inst;

    // Variables: one per arc, skipping arcs entering the root.
    for (int e = 0; e < g.numEdges(); ++e) {
        const Edge& ed = g.edge(e);
        if (ed.deleted) continue;
        if (ed.v != inst.root) {
            inst.arcVar[2 * e] =
                inst.model.addVar(ed.cost, 0.0, 1.0, true);
            inst.varArc.push_back(2 * e);
        }
        if (ed.u != inst.root) {
            inst.arcVar[2 * e + 1] =
                inst.model.addVar(ed.cost, 0.0, 1.0, true);
            inst.varArc.push_back(2 * e + 1);
        }
    }
    inst.model.objOffset = inst.fixedCost;

    auto inArcsOf = [&](int v) {
        std::vector<std::pair<int, double>> coefs;
        for (int e : g.incident(v)) {
            if (g.edge(e).deleted) continue;
            const int a = (g.edge(e).u == v) ? 2 * e + 1 : 2 * e;  // * -> v
            if (inst.arcVar[a] >= 0) coefs.emplace_back(inst.arcVar[a], 1.0);
        }
        return coefs;
    };
    auto outArcsOf = [&](int v) {
        std::vector<std::pair<int, double>> coefs;
        for (int e : g.incident(v)) {
            if (g.edge(e).deleted) continue;
            const int a = (g.edge(e).u == v) ? 2 * e : 2 * e + 1;  // v -> *
            if (inst.arcVar[a] >= 0) coefs.emplace_back(inst.arcVar[a], 1.0);
        }
        return coefs;
    };

    for (int v = 0; v < g.numVertices(); ++v) {
        if (!g.vertexAlive(v) || v == inst.root) continue;
        auto in = inArcsOf(v);
        if (in.empty()) continue;
        if (g.isTerminal(v)) {
            // Non-root terminal: exactly one incoming arc.
            inst.model.addLinear(cip::Row(in, 1.0, 1.0));
        } else {
            // In-degree <= 1.
            inst.model.addLinear(cip::Row(in, -cip::kInf, 1.0));
            // Flow balance (5): in <= out.
            auto out = outArcsOf(v);
            std::vector<std::pair<int, double>> coefs = in;
            for (auto& [var, c] : out) coefs.emplace_back(var, -c);
            inst.model.addLinear(cip::Row(std::move(coefs), -cip::kInf, 0.0));
        }
    }

    // Initial cut rows from dual ascent.
    DualAscentResult da = dualAscent(g, inst.root, maxInitialCuts);
    if (!da.disconnected) {
        inst.dualAscentBound = da.lowerBound + inst.fixedCost;
        for (const auto& cut : da.cuts) {
            std::vector<std::pair<int, double>> coefs;
            for (int a : cut)
                if (inst.arcVar[a] >= 0)
                    coefs.emplace_back(inst.arcVar[a], 1.0);
            if (!coefs.empty())
                inst.model.addLinear(cip::Row(std::move(coefs), 1.0, cip::kInf));
        }
    }
    return inst;
}

bool SapInstance::integralCosts() const {
    const auto integral = [](double c) {
        return std::fabs(c - std::round(c)) < 1e-9;
    };
    if (!integral(fixedCost)) return false;
    for (int e = 0; e < graph.numEdges(); ++e)
        if (!graph.edge(e).deleted && !integral(graph.edge(e).cost))
            return false;
    return true;
}

std::vector<double> treeToModelSolution(const SapInstance& inst,
                                        const std::vector<int>& treeEdges) {
    std::vector<double> x(inst.model.numVars(), 0.0);
    const Graph& g = inst.graph;
    // Orient from the root with a BFS over the tree's adjacency.
    std::vector<std::vector<int>> nbr(g.numVertices());
    for (int e : treeEdges) {
        nbr[g.edge(e).u].push_back(e);
        nbr[g.edge(e).v].push_back(e);
    }
    std::vector<bool> seen(g.numVertices(), false);
    std::queue<int> q;
    q.push(inst.root);
    seen[inst.root] = true;
    while (!q.empty()) {
        const int v = q.front();
        q.pop();
        for (int e : nbr[v]) {
            const int w = g.edge(e).other(v);
            if (seen[w]) continue;
            seen[w] = true;
            const int a = (g.edge(e).u == v) ? 2 * e : 2 * e + 1;  // v -> w
            if (inst.arcVar[a] >= 0) x[inst.arcVar[a]] = 1.0;
            q.push(w);
        }
    }
    return x;
}

std::vector<int> modelSolutionToTree(const SapInstance& inst,
                                     const std::vector<double>& x) {
    std::vector<int> edges;
    std::vector<bool> used(inst.graph.numEdges(), false);
    for (std::size_t var = 0; var < inst.varArc.size(); ++var) {
        if (x[var] > 0.5) {
            const int e = inst.varArc[var] / 2;
            if (!used[e]) {
                used[e] = true;
                edges.push_back(e);
            }
        }
    }
    return edges;
}

std::vector<int> toOriginalEdges(const SapInstance& inst,
                                 const std::vector<int>& reducedEdges) {
    std::vector<int> out = inst.fixedOriginalEdges;
    for (int e : reducedEdges)
        for (int o : inst.graph.edge(e).origin) out.push_back(o);
    return out;
}

}  // namespace steiner
