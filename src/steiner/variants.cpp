#include "steiner/variants.hpp"

#include <functional>

#include "steiner/dualascent.hpp"
#include "steiner/plugins.hpp"

namespace steiner {

namespace {

/// Generalized SAP model builder: per-arc costs and per-arc usability on an
/// (already gadget-augmented) graph. Structure matches buildSapInstance;
/// dual-ascent rows are included because directed Steiner cut rows are
/// structurally valid regardless of the cost function.
SapInstance buildGeneralSap(
    Graph g, double fixedOffset,
    const std::function<double(const Graph&, int e, int dir)>& arcCost,
    const std::function<bool(const Graph&, int e, int dir)>& arcAllowed) {
    SapInstance inst;
    inst.graph = std::move(g);
    inst.fixedCost = fixedOffset;
    inst.gadgetGraph = true;
    const Graph& gr = inst.graph;
    inst.root = gr.rootTerminal();
    inst.arcVar.assign(2 * static_cast<std::size_t>(gr.numEdges()), -1);
    if (inst.trivial()) return inst;

    for (int e = 0; e < gr.numEdges(); ++e) {
        const Edge& ed = gr.edge(e);
        if (ed.deleted) continue;
        for (int dir = 0; dir < 2; ++dir) {
            const int head = dir == 0 ? ed.v : ed.u;
            if (head == inst.root) continue;
            if (!arcAllowed(gr, e, dir)) continue;
            inst.arcVar[2 * e + dir] =
                inst.model.addVar(arcCost(gr, e, dir), 0.0, 1.0, true);
            inst.varArc.push_back(2 * e + dir);
        }
    }
    inst.model.objOffset = fixedOffset;

    auto arcsOf = [&](int v, bool incoming) {
        std::vector<std::pair<int, double>> coefs;
        for (int e : gr.incident(v)) {
            if (gr.edge(e).deleted) continue;
            const bool uSide = gr.edge(e).u == v;
            // incoming: * -> v, i.e. dir 1 if v == u else dir 0.
            const int dir = (uSide == incoming) ? 1 : 0;
            const int var = inst.arcVar[2 * e + dir];
            if (var >= 0) coefs.emplace_back(var, 1.0);
        }
        return coefs;
    };

    for (int v = 0; v < gr.numVertices(); ++v) {
        if (!gr.vertexAlive(v) || v == inst.root) continue;
        auto in = arcsOf(v, true);
        if (in.empty()) continue;
        if (gr.isTerminal(v)) {
            inst.model.addLinear(cip::Row(in, 1.0, 1.0));
        } else {
            inst.model.addLinear(cip::Row(in, -cip::kInf, 1.0));
            auto out = arcsOf(v, false);
            std::vector<std::pair<int, double>> coefs = in;
            for (auto& [var, c] : out) coefs.emplace_back(var, -c);
            inst.model.addLinear(cip::Row(std::move(coefs), -cip::kInf, 0.0));
        }
    }

    DualAscentResult da = dualAscent(gr, inst.root, 256);
    if (!da.disconnected) {
        for (const auto& cut : da.cuts) {
            std::vector<std::pair<int, double>> coefs;
            for (int a : cut)
                if (inst.arcVar[a] >= 0)
                    coefs.emplace_back(inst.arcVar[a], 1.0);
            if (!coefs.empty())
                inst.model.addLinear(
                    cip::Row(std::move(coefs), 1.0, cip::kInf));
        }
    }
    return inst;
}

}  // namespace

SapInstance buildPrizeCollectingSap(const PrizeCollectingProblem& prob) {
    Graph g = prob.graph;
    for (int v = 0; v < g.numVertices(); ++v) g.setTerminal(v, false);
    const int baseEdges = g.numEdges();
    // Gadgets: terminal t_v reachable via v (collect, cost 0) or directly
    // from the root (forfeit, cost p_v).
    std::vector<int> gadgetOf;  // vertex index of t_v per gadget edge pair
    for (int v = 0; v < prob.graph.numVertices(); ++v) {
        if (v == prob.root || prob.prize[v] <= 0.0) continue;
        const int tv = g.addVertex();
        g.setTerminal(tv, true);
        g.addEdge(v, tv, 0.0);
        g.addEdge(prob.root, tv, prob.prize[v]);
        gadgetOf.push_back(tv);
    }
    // Make the root a terminal *after* gadget creation and force it to be
    // the arborescence root (rootTerminal() picks the smallest index; the
    // root may not be vertex 0, so mark only it among original vertices).
    g.setTerminal(prob.root, true);
    const int numOrig = prob.graph.numVertices();
    auto allowed = [numOrig](const Graph& gg, int e, int dir) {
        const Edge& ed = gg.edge(e);
        const int tail = dir == 0 ? ed.u : ed.v;
        // Gadget terminals are pure sinks.
        return tail < numOrig;
    };
    auto cost = [](const Graph& gg, int e, int) { return gg.edge(e).cost; };
    SapInstance inst = buildGeneralSap(std::move(g), 0.0, cost, allowed);
    // Root selection: rootTerminal() returns the smallest-index terminal,
    // which is prob.root since gadget vertices come after all originals and
    // no other original vertex is a terminal.
    (void)baseEdges;
    return inst;
}

SapInstance buildNodeWeightedSap(const NodeWeightedProblem& prob) {
    Graph g = prob.graph;
    const int root = g.rootTerminal();
    double offset = root >= 0 ? prob.nodeCost[root] : 0.0;
    auto cost = [&prob](const Graph& gg, int e, int dir) {
        const Edge& ed = gg.edge(e);
        const int head = dir == 0 ? ed.v : ed.u;
        return ed.cost + prob.nodeCost[head];
    };
    auto allowed = [](const Graph&, int, int) { return true; };
    return buildGeneralSap(std::move(g), offset, cost, allowed);
}

SapInstance buildDegreeConstrainedSap(const DegreeConstrainedProblem& prob) {
    Graph g = prob.graph;
    auto cost = [](const Graph& gg, int e, int) { return gg.edge(e).cost; };
    auto allowed = [](const Graph&, int, int) { return true; };
    SapInstance inst = buildGeneralSap(std::move(g), 0.0, cost, allowed);
    // Undirected degree rows: every incident arc (either direction) counts.
    for (int v = 0; v < inst.graph.numVertices(); ++v) {
        if (v >= static_cast<int>(prob.maxDegree.size())) break;
        if (prob.maxDegree[v] <= 0) continue;
        std::vector<std::pair<int, double>> coefs;
        for (int e : inst.graph.incident(v)) {
            if (inst.graph.edge(e).deleted) continue;
            for (int dir = 0; dir < 2; ++dir) {
                const int var = inst.arcVar[2 * e + dir];
                if (var >= 0) coefs.emplace_back(var, 1.0);
            }
        }
        if (!coefs.empty())
            inst.model.addLinear(cip::Row(std::move(coefs), -cip::kInf,
                                          double(prob.maxDegree[v])));
    }
    return inst;
}

SapInstance buildGroupSteinerSap(const GroupSteinerProblem& prob) {
    Graph g = prob.graph;
    for (int v = 0; v < g.numVertices(); ++v) g.setTerminal(v, false);
    const int numOrig = g.numVertices();
    // One gadget terminal per group, linked by zero-cost edges.
    std::vector<int> gadget;
    for (const auto& group : prob.groups) {
        const int tg = g.addVertex();
        g.setTerminal(tg, true);
        for (int v : group) g.addEdge(v, tg, 0.0);
        gadget.push_back(tg);
    }
    if (gadget.empty()) {
        SapInstance inst;
        inst.graph = std::move(g);
        inst.gadgetGraph = true;
        return inst;
    }
    const int root = gadget[0];  // smallest-index terminal == group 0 gadget
    auto cost = [](const Graph& gg, int e, int) { return gg.edge(e).cost; };
    auto allowed = [numOrig, root](const Graph& gg, int e, int dir) {
        const Edge& ed = gg.edge(e);
        const int tail = dir == 0 ? ed.u : ed.v;
        // Non-root gadget terminals are pure sinks; the root gadget may
        // only be left (it has no incoming arcs anyway).
        if (tail >= numOrig && tail != root) return false;
        return true;
    };
    SapInstance inst = buildGeneralSap(std::move(g), 0.0, cost, allowed);
    // The virtual root must pick exactly one group-0 representative, or the
    // "tree" would be a forest in the original graph.
    std::vector<std::pair<int, double>> rootOut;
    for (int e : inst.graph.incident(root)) {
        if (inst.graph.edge(e).deleted) continue;
        for (int dir = 0; dir < 2; ++dir) {
            const int var = inst.arcVar[2 * e + dir];
            if (var >= 0) rootOut.emplace_back(var, 1.0);
        }
    }
    if (!rootOut.empty())
        inst.model.addLinear(cip::Row(std::move(rootOut), 1.0, 1.0));
    return inst;
}

SteinerResult solveVariant(const SapInstance& inst,
                           const cip::ParamSet& params) {
    SteinerResult res;
    if (inst.trivial()) {
        res.status = cip::Status::Optimal;
        res.cost = inst.fixedCost;
        res.dualBound = inst.fixedCost;
        res.solvedByPresolve = true;
        return res;
    }
    cip::Solver solver;
    solver.setModel(inst.model);
    solver.params().merge(params);
    installStpPlugins(solver, inst);
    res.status = solver.solve();
    res.dualBound = solver.dualBound();
    res.stats = solver.stats();
    if (solver.incumbent().valid()) {
        res.cost = solver.incumbent().obj;
        res.originalEdges = modelSolutionToTree(inst, solver.incumbent().x);
    }
    return res;
}

}  // namespace steiner
