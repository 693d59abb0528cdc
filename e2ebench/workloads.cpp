#include "workloads.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <random>

#include "misdp/instances.hpp"
#include "steiner/instances.hpp"

namespace e2e {

namespace {

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// Fisher-Yates on mt19937_64 output, so a seed yields the same order with
/// every standard library (std::shuffle's algorithm is unspecified).
template <typename T>
void shuffle(std::vector<T>& v, std::mt19937_64& rng) {
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng() % i]);
}

std::uint64_t hashName(const std::string& s) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
    return h;
}

struct Generator {
    std::function<steiner::Graph()> stp;
    std::function<misdp::MisdpProblem()> misdp;
};

struct Entry {
    InstanceSpec spec;
    Generator gen;
};

Entry stp(std::string name, std::string family, double opt,
          std::function<steiner::Graph()> gen) {
    return Entry{{std::move(name), std::move(family), Kind::Steiner, opt},
                 {std::move(gen), {}}};
}

Entry sdp(std::string name, std::string family, double opt,
          std::function<misdp::MisdpProblem()> gen) {
    return Entry{{std::move(name), std::move(family), Kind::Misdp, opt},
                 {{}, std::move(gen)}};
}

const std::vector<Entry>& entries() {
    using namespace steiner;
    using namespace misdp;
    static const std::vector<Entry> e = {
        stp("hc4p-s6", "hc", 1035, [] { return genHypercube(4, true, 6); }),
        stp("hc5u-s1", "hc", 20, [] { return genHypercube(5, false, 1); }),
        stp("cc3-4p-s1", "cc", 1866,
            [] { return genCodeCover(3, 4, true, 1); }),
        stp("cc3-4p-s5", "cc", 1755,
            [] { return genCodeCover(3, 4, true, 5); }),
        stp("cc4-3p-s1", "cc", 2291,
            [] { return genCodeCover(4, 3, true, 1); }),
        stp("bip14-s6", "bip", 2195,
            [] { return genBipartite(14, 30, 3, true, 6); }),
        stp("bip16-s1", "bip", 2377,
            [] { return genBipartite(16, 36, 3, true, 1); }),
        stp("bip20-s1", "bip", 3018,
            [] { return genBipartite(20, 45, 3, true, 1); }),
        stp("bip20-s2", "bip", 3025,
            [] { return genBipartite(20, 45, 3, true, 2); }),
        sdp("ttd4x2-s1", "TTD", -9.242640687,
            [] { return genTrussTopology(4, 2, 1.8, 1); }),
        sdp("ttd3x3-s1", "TTD", -11.48528137,
            [] { return genTrussTopology(3, 3, 1.8, 1); }),
        sdp("cls5-8-2", "CLS", -0.02079000,
            [] { return genCardinalityLS(5, 8, 2, 2); }),
        sdp("cls6-10-3", "CLS", -0.05422201498,
            [] { return genCardinalityLS(6, 10, 3, 2); }),
        sdp("cls8-12-3", "CLS", -0.01385901435,
            [] { return genCardinalityLS(8, 12, 3, 2); }),
        sdp("mkp8-3", "MkP", -6.52028456,
            [] { return genMinKPartition(8, 3, 2); }),
        sdp("mkp9-3", "MkP", -8.879848461,
            [] { return genMinKPartition(9, 3, 2); }),
    };
    return e;
}

int indexOf(const std::string& name) {
    const auto& e = entries();
    for (std::size_t i = 0; i < e.size(); ++i)
        if (e[i].spec.name == name) return static_cast<int>(i);
    return -1;
}

WorkloadInstance use(const std::string& name, int poolSize,
                     std::vector<int> excluded = {}) {
    return WorkloadInstance{indexOf(name), poolSize, std::move(excluded)};
}

std::mt19937_64 relabelRng(int instance, int relabel) {
    return std::mt19937_64(
        mix(hashName(entries()[instance].spec.name) ^ mix(relabel)));
}

}  // namespace

const std::vector<InstanceSpec>& catalogue() {
    static const std::vector<InstanceSpec> c = [] {
        std::vector<InstanceSpec> out;
        for (const Entry& e : entries()) out.push_back(e.spec);
        return out;
    }();
    return c;
}

const std::vector<Workload>& workloads() {
    // Pools: ids 1..N minus the ids `e2e --scan 1 N --workload W` printed
    // (wrong answer, an LP iteration-limit step, or > 5x the median time).
    // A 30 s run solves about half of each pool, so its work varies little
    // with the seed while seeds still differ in the relabelings they solve.
    static const std::vector<Workload> w = {
        {"stp-seq",
         Mode::Sequential,
         {use("hc4p-s6", 48),
          use("cc3-4p-s1", 48),
          use("cc3-4p-s5", 48),
          use("cc4-3p-s1", 48, {46}),
          use("bip14-s6", 48, {5, 16, 20, 23, 24, 38, 40, 41, 44}),
          use("bip16-s1", 48, {7, 12}),
          use("bip20-s1", 48, {24}),
          use("bip20-s2", 48, {1, 3, 28, 43, 46, 48})},
         0,
         1.8},
        {"stp-sim64",
         Mode::Sim64,
         {use("hc4p-s6", 16),
          use("hc5u-s1", 16, {5}),
          use("cc3-4p-s1", 16, {1, 2, 7, 12, 16}),
          use("cc3-4p-s5", 16),
          use("cc4-3p-s1", 16, {4, 6, 13, 16}),
          use("bip14-s6", 16),
          use("bip16-s1", 16),
          use("bip20-s1", 16),
          use("bip20-s2", 16)},
         0,
         0.67},
        {"misdp-race3",
         Mode::Racing3,
         {use("ttd4x2-s1", 12), use("ttd3x3-s1", 12), use("cls5-8-2", 12),
          use("cls6-10-3", 12), use("cls8-12-3", 12), use("mkp8-3", 12),
          use("mkp9-3", 12)},
         2,
         0.47},
    };
    return w;
}

const Workload* findWorkload(const std::string& name) {
    for (const Workload& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

steiner::Graph makeGraph(int instance, int relabel) {
    steiner::Graph g = entries()[instance].gen.stp();
    if (relabel == 0) return g;
    std::mt19937_64 rng = relabelRng(instance, relabel);
    std::vector<int> perm(g.numVertices());
    std::iota(perm.begin(), perm.end(), 0);
    shuffle(perm, rng);
    std::vector<int> order(g.numEdges());
    std::iota(order.begin(), order.end(), 0);
    shuffle(order, rng);
    steiner::Graph h(g.numVertices());
    h.name = g.name;
    for (int e : order) {
        const steiner::Edge& ed = g.edge(e);
        int u = perm[ed.u], v = perm[ed.v];
        if (rng() & 1) std::swap(u, v);
        h.addEdge(u, v, ed.cost);
    }
    for (int v = 0; v < g.numVertices(); ++v)
        if (g.isTerminal(v)) h.setTerminal(perm[v], true);
    return h;
}

misdp::MisdpProblem makeMisdp(int instance, int relabel) {
    misdp::MisdpProblem p = entries()[instance].gen.misdp();
    if (relabel == 0) return p;
    std::mt19937_64 rng = relabelRng(instance, relabel);
    const int m = p.numVars;
    std::vector<int> perm(m);
    std::iota(perm.begin(), perm.end(), 0);
    shuffle(perm, rng);
    misdp::MisdpProblem q;
    q.init(m);
    q.name = p.name;
    q.family = p.family;
    for (int j = 0; j < m; ++j) {
        q.obj[perm[j]] = p.obj[j];
        q.lb[perm[j]] = p.lb[j];
        q.ub[perm[j]] = p.ub[j];
        q.isInt[perm[j]] = p.isInt[j];
    }
    // Blocks in shuffled order, each conjugated by a random permutation
    // matrix (P C P^T keeps positive semidefiniteness).
    std::vector<int> blocks(p.blocks.size());
    std::iota(blocks.begin(), blocks.end(), 0);
    shuffle(blocks, rng);
    for (int b : blocks) {
        const sdp::SdpBlock& blk = p.blocks[b];
        std::vector<int> rp(blk.dim);
        std::iota(rp.begin(), rp.end(), 0);
        shuffle(rp, rng);
        auto conj = [&](const linalg::Matrix& a) {
            linalg::Matrix out(blk.dim, blk.dim);
            for (int i = 0; i < blk.dim; ++i)
                for (int k = 0; k < blk.dim; ++k) out(rp[i], rp[k]) = a(i, k);
            return out;
        };
        sdp::SdpBlock nb;
        nb.dim = blk.dim;
        nb.c = conj(blk.c);
        nb.a.assign(m, linalg::Matrix{});
        for (int j = 0; j < m && j < static_cast<int>(blk.a.size()); ++j)
            if (!blk.a[j].empty()) nb.a[perm[j]] = conj(blk.a[j]);
        q.blocks.push_back(std::move(nb));
    }
    std::vector<int> rows(p.linearRows.size());
    std::iota(rows.begin(), rows.end(), 0);
    shuffle(rows, rng);
    for (int r : rows) {
        lp::Row row = p.linearRows[r];
        for (auto& [j, c] : row.coefs) j = perm[j];
        std::sort(row.coefs.begin(), row.coefs.end());
        q.linearRows.push_back(std::move(row));
    }
    return q;
}

std::vector<int> WorkloadInstance::pool() const {
    std::vector<int> ids;
    for (int id = 1; id <= poolSize; ++id)
        if (!std::binary_search(excluded.begin(), excluded.end(), id))
            ids.push_back(id);
    return ids;
}

int pickRelabel(const WorkloadInstance& wi, std::uint64_t seed, int k) {
    std::vector<int> order = wi.pool();
    std::mt19937_64 rng(mix(seed) ^ mix(0x5EED0000ULL + wi.instance));
    shuffle(order, rng);
    return order[static_cast<std::size_t>(k) % order.size()];
}

}  // namespace e2e
