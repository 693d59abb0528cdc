#include "steiner/instances.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>

namespace steiner {

namespace {

double drawCost(bool perturbed, std::mt19937_64& rng) {
    if (!perturbed) return 1.0;
    std::uniform_int_distribution<int> d(100, 110);
    return static_cast<double>(d(rng));
}

}  // namespace

Graph genHypercube(int dim, bool perturbedCosts, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    const int n = 1 << dim;
    Graph g(n);
    std::ostringstream name;
    name << "hc" << dim << (perturbedCosts ? "p" : "u");
    g.name = name.str();
    for (int v = 0; v < n; ++v)
        for (int b = 0; b < dim; ++b) {
            const int w = v ^ (1 << b);
            if (w > v) g.addEdge(v, w, drawCost(perturbedCosts, rng));
        }
    for (int v = 0; v < n; ++v)
        if (__builtin_popcount(static_cast<unsigned>(v)) % 2 == 0)
            g.setTerminal(v, true);
    return g;
}

Graph genCodeCover(int dim, int alphabet, bool perturbedCosts,
                   std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    int n = 1;
    for (int i = 0; i < dim; ++i) n *= alphabet;
    Graph g(n);
    std::ostringstream name;
    name << "cc" << dim << "-" << alphabet << (perturbedCosts ? "p" : "u");
    g.name = name.str();
    // Vertices are base-`alphabet` strings of length dim; edges connect
    // Hamming-distance-1 strings.
    std::vector<int> pow(dim + 1, 1);
    for (int i = 1; i <= dim; ++i) pow[i] = pow[i - 1] * alphabet;
    for (int v = 0; v < n; ++v) {
        for (int pos = 0; pos < dim; ++pos) {
            const int digit = (v / pow[pos]) % alphabet;
            for (int nd = digit + 1; nd < alphabet; ++nd) {
                const int w = v + (nd - digit) * pow[pos];
                g.addEdge(v, w, drawCost(perturbedCosts, rng));
            }
        }
    }
    // Random "codewords" as terminals: ~|V|/4, at least 2.
    std::vector<int> verts(n);
    for (int v = 0; v < n; ++v) verts[v] = v;
    std::shuffle(verts.begin(), verts.end(), rng);
    const int k = std::max(2, n / 4);
    for (int i = 0; i < k; ++i) g.setTerminal(verts[i], true);
    return g;
}

Graph genBipartite(int numTerminals, int numSteiner, int degree,
                   bool perturbedCosts, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    const int n = numTerminals + numSteiner;
    Graph g(n);
    std::ostringstream name;
    name << "bip" << numTerminals << "_" << numSteiner
         << (perturbedCosts ? "p" : "u");
    g.name = name.str();
    std::uniform_int_distribution<int> pickS(numTerminals, n - 1);
    // Terminal -> Steiner links.
    for (int t = 0; t < numTerminals; ++t) {
        g.setTerminal(t, true);
        std::vector<bool> used(n, false);
        for (int d = 0; d < degree; ++d) {
            int s = pickS(rng);
            int guard = 0;
            while (used[s] && guard++ < 50) s = pickS(rng);
            if (used[s]) continue;
            used[s] = true;
            g.addEdge(t, s, drawCost(perturbedCosts, rng));
        }
    }
    // Sparse Steiner-layer ring + random chords keep it connected.
    for (int s = numTerminals; s < n; ++s) {
        const int nxt = (s + 1 - numTerminals) % numSteiner + numTerminals;
        if (nxt != s) g.addEdge(s, nxt, drawCost(perturbedCosts, rng));
    }
    const int chords = numSteiner * (degree - 1) / 2;
    for (int c = 0; c < chords; ++c) {
        const int a = pickS(rng);
        const int b = pickS(rng);
        if (a != b) g.addEdge(a, b, drawCost(perturbedCosts, rng));
    }
    return g;
}

Graph genGeometric(int n, int k, double radius, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coord(0.0, 1.0);
    std::vector<double> x(n), y(n);
    for (int i = 0; i < n; ++i) {
        x[i] = coord(rng);
        y[i] = coord(rng);
    }
    Graph g(n);
    g.name = "geometric";
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j) {
            const double d = std::hypot(x[i] - x[j], y[i] - y[j]);
            if (d <= radius) g.addEdge(i, j, d);
        }
    std::vector<int> verts(n);
    for (int i = 0; i < n; ++i) verts[i] = i;
    std::shuffle(verts.begin(), verts.end(), rng);
    for (int i = 0; i < std::min(k, n); ++i) g.setTerminal(verts[i], true);
    return g;
}

Graph genGrid(int w, int h, int k, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    const int n = w * h;
    Graph g(n);
    g.name = "grid";
    auto id = [w](int r, int c) { return r * w + c; };
    for (int r = 0; r < h; ++r)
        for (int c = 0; c < w; ++c) {
            if (c + 1 < w) g.addEdge(id(r, c), id(r, c + 1), 1.0);
            if (r + 1 < h) g.addEdge(id(r, c), id(r + 1, c), 1.0);
        }
    std::vector<int> verts(n);
    for (int i = 0; i < n; ++i) verts[i] = i;
    std::shuffle(verts.begin(), verts.end(), rng);
    for (int i = 0; i < std::min(k, n); ++i) g.setTerminal(verts[i], true);
    return g;
}

bool writeStp(std::ostream& os, const Graph& g) {
    os << "33D32945 STP File, STP Format Version 1.0\n";
    os << "SECTION Comment\n";
    os << "Name \"" << (g.name.empty() ? "unnamed" : g.name) << "\"\n";
    os << "Creator \"ugcop\"\n";
    os << "END\n\n";
    os << "SECTION Graph\n";
    os << "Nodes " << g.numVertices() << "\n";
    os << "Edges " << g.numActiveEdges() << "\n";
    for (int e = 0; e < g.numEdges(); ++e) {
        const Edge& ed = g.edge(e);
        if (ed.deleted) continue;
        os << "E " << ed.u + 1 << " " << ed.v + 1 << " " << ed.cost << "\n";
    }
    os << "END\n\n";
    os << "SECTION Terminals\n";
    auto terms = g.terminals();
    os << "Terminals " << terms.size() << "\n";
    for (int t : terms) os << "T " << t + 1 << "\n";
    os << "END\n\nEOF\n";
    return static_cast<bool>(os);
}

std::optional<Graph> readStp(std::istream& is) {
    std::string line;
    Graph g;
    bool haveGraph = false;
    std::string section;
    int expectNodes = -1;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word)) continue;
        if (word == "SECTION") {
            ls >> section;
            continue;
        }
        if (word == "END") {
            section.clear();
            continue;
        }
        if (word == "EOF") break;
        if (section == "Graph") {
            if (word == "Nodes") {
                if (!(ls >> expectNodes) || expectNodes <= 0 ||
                    expectNodes > kMaxStpNodes)
                    return std::nullopt;
                g.reset(expectNodes);
                haveGraph = true;
            } else if (word == "E" || word == "A") {
                int u, v;
                double c;
                if (!(ls >> u >> v >> c) || !haveGraph) return std::nullopt;
                if (u < 1 || v < 1 || u > expectNodes || v > expectNodes)
                    return std::nullopt;
                if (!std::isfinite(c) || c < 0.0) return std::nullopt;
                if (u != v) g.addEdge(u - 1, v - 1, c);
            }
        } else if (section == "Terminals") {
            if (word == "T") {
                int t;
                if (!(ls >> t) || !haveGraph) return std::nullopt;
                if (t < 1 || t > expectNodes) return std::nullopt;
                g.setTerminal(t - 1, true);
            }
        } else if (section == "Comment") {
            if (word == "Name") {
                std::string rest;
                std::getline(ls, rest);
                // Strip quotes/spaces.
                std::string nm;
                for (char ch : rest)
                    if (ch != '"' && ch != ' ') nm += ch;
                g.name = nm;
            }
        }
    }
    if (!haveGraph) return std::nullopt;
    return g;
}

bool writeStpFile(const std::string& path, const Graph& g) {
    std::ofstream out(path);
    if (!out) return false;
    return writeStp(out, g);
}

std::optional<Graph> readStpFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    return readStp(in);
}

}  // namespace steiner
