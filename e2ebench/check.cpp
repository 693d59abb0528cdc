#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

namespace e2e {

namespace {

bool near(double a, double b, double relTol) {
    return std::fabs(a - b) <= relTol * std::max(1.0, std::fabs(b));
}

std::string fmt(const char* what, double got, double want) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s %.10g, expected %.10g", what, got,
                  want);
    return buf;
}

int findRoot(std::vector<int>& parent, int v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
}

}  // namespace

std::string checkSteiner(const steiner::Graph& g,
                         const steiner::SteinerResult& r, double optimum) {
    if (r.status != cip::Status::Optimal)
        return std::string("status ") + cip::toString(r.status);
    const int n = g.numVertices();
    std::vector<int> parent(n);
    std::iota(parent.begin(), parent.end(), 0);
    std::vector<char> used(g.numEdges(), 0), touched(n, 0);
    double cost = 0.0;
    for (int e : r.originalEdges) {
        if (e < 0 || e >= g.numEdges()) return "edge id out of range";
        if (used[e]) return "edge listed twice";
        used[e] = 1;
        const steiner::Edge& ed = g.edge(e);
        const int a = findRoot(parent, ed.u), b = findRoot(parent, ed.v);
        if (a == b) return "solution edges contain a cycle";
        parent[a] = b;
        touched[ed.u] = touched[ed.v] = 1;
        cost += ed.cost;
    }
    // A forest with |E| edges spanning k touched vertices is one tree iff
    // k = |E| + 1; a single terminal needs no edge at all.
    const std::vector<int> terms = g.terminals();
    int k = 0;
    for (int v = 0; v < n; ++v) k += touched[v];
    if (!r.originalEdges.empty() &&
        k != static_cast<int>(r.originalEdges.size()) + 1)
        return "solution edges are not connected";
    if (terms.size() > 1) {
        const int root = findRoot(parent, terms[0]);
        for (int t : terms)
            if (!touched[t] || findRoot(parent, t) != root)
                return "terminal not spanned";
    }
    if (!near(cost, r.cost, 1e-9)) return fmt("recomputed cost", cost, r.cost);
    if (!near(r.dualBound, cost, 1e-9))
        return fmt("dual bound", r.dualBound, cost);
    if (!near(cost, optimum, 1e-9)) return fmt("cost", cost, optimum);
    return {};
}

std::string checkMisdp(const misdp::MisdpProblem& p,
                       const misdp::MisdpResult& r, double optimum) {
    if (r.status != cip::Status::Optimal)
        return std::string("status ") + cip::toString(r.status);
    if (static_cast<int>(r.y.size()) != p.numVars) return "no solution vector";
    if (!p.isFeasible(r.y)) return "solution infeasible";
    const double obj = p.objective(r.y);
    if (!near(obj, r.objective, 1e-7))
        return fmt("recomputed objective", obj, r.objective);
    if (!near(r.dualBound, obj, 1e-6))
        return fmt("dual bound", r.dualBound, obj);
    if (!near(obj, optimum, 1e-6)) return fmt("objective", obj, optimum);
    return {};
}

}  // namespace e2e
