// Cross-solver Steiner cut sharing: wire-format round trips, the
// LoadCoordinator's global dominance pool against a brute-force antichain
// oracle, echo suppression / relevance filtering / capacity eviction,
// receiver-side certification (an invalid shared support must never become
// an LP row), the post-ship frontierWeight fix, and end-to-end shared-pool
// runs — deterministic under SimEngine, oracle-correct, and with all share
// machinery provably quiet when stp/share/enable is off.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "steiner/cutpool.hpp"
#include "steiner/exactdp.hpp"
#include "steiner/instances.hpp"
#include "steiner/plugins.hpp"
#include "steiner/reductions.hpp"
#include "steiner/stpmodel.hpp"
#include "steiner/stpsolver.hpp"
#include "ug/cutbundle.hpp"
#include "ug/globalcutpool.hpp"
#include "ug/loadcoordinator.hpp"
#include "ug/simengine.hpp"
#include "ugcip/stp_plugins.hpp"

// --- wire format --------------------------------------------------------------

TEST(CutBundle, AppendRejectsMalformedSupports) {
    ug::CutBundle b;
    EXPECT_FALSE(b.append({}));            // empty support
    EXPECT_FALSE(b.append({3, 2}));        // unsorted
    EXPECT_FALSE(b.append({2, 2, 5}));     // duplicate
    EXPECT_FALSE(b.append({-1, 4}));       // negative id
    EXPECT_FALSE(b.append({1, 2}, 0));     // rhs class below 1
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(b.wireWords(), 0u);

    ASSERT_TRUE(b.append({7}));
    ASSERT_TRUE(b.append({0, 3, 9}, 2));
    EXPECT_EQ(b.count(), 2);
    // [rhs, k, var0, deltas...]: 3 words for {7}, 5 for {0,3,9}.
    EXPECT_EQ(b.wireWords(), 8u);
}

TEST(CutBundle, RoundTripPropertyRandomized) {
    std::mt19937 rng(20260807);
    for (int trial = 0; trial < 200; ++trial) {
        std::uniform_int_distribution<int> nCuts(0, 8), width(1, 6),
            varDist(0, 40), rhsDist(1, 3);
        ug::CutBundle b;
        std::vector<ug::CutSupport> expected;
        const int n = nCuts(rng);
        for (int c = 0; c < n; ++c) {
            std::set<int> s;
            const int k = width(rng);
            while (static_cast<int>(s.size()) < k) s.insert(varDist(rng));
            ug::CutSupport cs;
            cs.vars.assign(s.begin(), s.end());
            cs.rhsClass = rhsDist(rng);
            ASSERT_TRUE(b.append(cs.vars, cs.rhsClass));
            expected.push_back(std::move(cs));
        }
        std::vector<ug::CutSupport> got;
        ASSERT_TRUE(b.decode(got));
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].vars, expected[i].vars) << trial;
            EXPECT_EQ(got[i].rhsClass, expected[i].rhsClass) << trial;
        }
        // decode() appends: a second pass doubles the output.
        ASSERT_TRUE(b.decode(got));
        EXPECT_EQ(got.size(), 2 * expected.size());
    }
}

// --- LC global pool vs brute-force antichain oracle ---------------------------

namespace {

using OracleCut = std::pair<int, std::vector<int>>;  // (rhsClass, vars)

/// The specified merge semantics, the obvious O(n^2) way: within an RHS
/// class the live set is an antichain under set inclusion — an offered
/// support is rejected when some live support (same class) is a subset of
/// it, and admits by evicting its live strict supersets.
struct ShareOracle {
    std::vector<OracleCut> alive;

    bool offer(const ug::CutSupport& cs) {
        const std::set<int> s(cs.vars.begin(), cs.vars.end());
        for (const auto& [rhs, vars] : alive) {
            if (rhs != cs.rhsClass) continue;
            if (std::includes(s.begin(), s.end(), vars.begin(), vars.end()))
                return false;  // duplicate or dominated
        }
        std::erase_if(alive, [&](const OracleCut& oc) {
            return oc.first == cs.rhsClass &&
                   std::includes(oc.second.begin(), oc.second.end(),
                                 s.begin(), s.end()) &&
                   oc.second.size() > s.size();
        });
        alive.emplace_back(cs.rhsClass, cs.vars);
        return true;
    }

    std::multiset<OracleCut> asSet() const {
        return {alive.begin(), alive.end()};
    }
};

std::multiset<OracleCut> poolAsSet(const ug::GlobalCutPool& pool) {
    std::multiset<OracleCut> out;
    for (const auto& cs : pool.snapshot()) out.emplace(cs.rhsClass, cs.vars);
    return out;
}

}  // namespace

TEST(GlobalCutPool, MergeMatchesBruteForceOracle) {
    std::mt19937 rng(42);
    for (int trial = 0; trial < 60; ++trial) {
        ug::GlobalCutPool pool(4, 4096);  // capacity never binds here
        ShareOracle oracle;
        std::uniform_int_distribution<int> width(1, 4), varDist(0, 11),
            rhsDist(1, 2), originDist(1, 3), nCuts(1, 5);
        for (int round = 0; round < 40; ++round) {
            ug::CutBundle b;
            std::vector<ug::CutSupport> offered;
            const int n = nCuts(rng);
            for (int c = 0; c < n; ++c) {
                std::set<int> s;
                const int k = width(rng);
                while (static_cast<int>(s.size()) < k) s.insert(varDist(rng));
                ug::CutSupport cs;
                cs.vars.assign(s.begin(), s.end());
                cs.rhsClass = rhsDist(rng);
                ASSERT_TRUE(b.append(cs.vars, cs.rhsClass));
                offered.push_back(std::move(cs));
            }
            const auto ms = pool.merge(b, originDist(rng));
            int oraclePooled = 0;
            for (const auto& cs : offered)
                if (oracle.offer(cs)) ++oraclePooled;
            ASSERT_EQ(ms.reported, n);
            ASSERT_EQ(ms.pooled, oraclePooled) << trial << ":" << round;
            ASSERT_EQ(poolAsSet(pool), oracle.asSet())
                << trial << ":" << round;
            ASSERT_EQ(pool.size(), static_cast<int>(oracle.alive.size()));
        }
    }
}

TEST(GlobalCutPool, NeverEchoesToOriginAndSendsOnce) {
    ug::GlobalCutPool pool(4, 64);
    ug::CutBundle in;
    ASSERT_TRUE(in.append({0, 1}));
    ASSERT_TRUE(in.append({2, 3}));
    ASSERT_EQ(pool.merge(in, 1).pooled, 2);

    // The origin never gets its own cuts back.
    EXPECT_TRUE(pool.bundleFor(1, {}, 16).empty());

    // Another rank gets them exactly once...
    std::vector<ug::CutSupport> got;
    ASSERT_TRUE(pool.bundleFor(2, {}, 16).decode(got));
    EXPECT_EQ(got.size(), 2u);
    EXPECT_TRUE(pool.bundleFor(2, {}, 16).empty());
    // ...and independently of rank 2's delivery, rank 3 still gets both.
    got.clear();
    ASSERT_TRUE(pool.bundleFor(3, {}, 16).decode(got));
    EXPECT_EQ(got.size(), 2u);

    // A duplicate re-report marks the reporter as knowing the cut.
    ug::CutBundle dup;
    ASSERT_TRUE(dup.append({0, 1}));
    ug::GlobalCutPool pool2(4, 64);
    ASSERT_EQ(pool2.merge(in, 1).pooled, 2);
    ASSERT_EQ(pool2.merge(dup, 2).pooled, 0);
    got.clear();
    ASSERT_TRUE(pool2.bundleFor(2, {}, 16).decode(got));
    ASSERT_EQ(got.size(), 1u);  // only {2,3}; rank 2 already knows {0,1}
    EXPECT_EQ(got[0].vars, (std::vector<int>{2, 3}));
}

TEST(GlobalCutPool, RelevanceFilterSkipsSupportsFixedToOne) {
    ug::GlobalCutPool pool(4, 64);
    ug::CutBundle in;
    ASSERT_TRUE(in.append({0, 1}));
    ASSERT_TRUE(in.append({2, 3}));
    ASSERT_EQ(pool.merge(in, 1).pooled, 2);

    // Subproblem with x_2 fixed to 1: the {2,3} row is trivially satisfied
    // there and must not be shipped; {0,1} still is.
    cip::SubproblemDesc desc;
    desc.boundChanges.push_back({2, 1.0, 1.0});
    std::vector<ug::CutSupport> got;
    ASSERT_TRUE(pool.bundleFor(2, desc, 16).decode(got));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].vars, (std::vector<int>{0, 1}));

    // The skipped cut was NOT marked known: an unrestricted assignment to
    // the same rank later still delivers it.
    got.clear();
    ASSERT_TRUE(pool.bundleFor(2, {}, 16).decode(got));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].vars, (std::vector<int>{2, 3}));
}

TEST(GlobalCutPool, CapacityEvictsOldestTouched) {
    ug::GlobalCutPool pool(4, 2);
    for (int v : {0, 1, 2}) {
        ug::CutBundle b;
        ASSERT_TRUE(b.append({v}));
        ASSERT_EQ(pool.merge(b, 1).pooled, 1);
    }
    EXPECT_EQ(pool.size(), 2);
    EXPECT_EQ(pool.capacityEvicted(), 1);
    const auto snap = poolAsSet(pool);
    // {0} is the oldest-touched entry and the one evicted.
    EXPECT_EQ(snap.count({1, {0}}), 0u);
    EXPECT_EQ(snap.count({1, {1}}), 1u);
    EXPECT_EQ(snap.count({1, {2}}), 1u);
}

// --- solver-side export cursor ------------------------------------------------

TEST(CutShare, ExportNewAdmittedSkipsEvictedAndConsumes) {
    steiner::CutPool pool;
    ASSERT_EQ(pool.offer({1, 2, 3}), steiner::CutPool::Verdict::Admitted);
    // {2,3} evicts the superset before anything was exported.
    ASSERT_EQ(pool.offer({2, 3}), steiner::CutPool::Verdict::Admitted);

    ug::CutBundle b;
    EXPECT_EQ(pool.exportNewAdmitted(b, 16), 1);
    std::vector<ug::CutSupport> got;
    ASSERT_TRUE(b.decode(got));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].vars, (std::vector<int>{2, 3}));
    EXPECT_EQ(got[0].rhsClass, 1);

    // The cursor consumed everything; only later admissions export.
    ug::CutBundle b2;
    EXPECT_EQ(pool.exportNewAdmitted(b2, 16), 0);
    ASSERT_EQ(pool.offer({5, 6}), steiner::CutPool::Verdict::Admitted);
    EXPECT_EQ(pool.exportNewAdmitted(b2, 16), 1);
    got.clear();
    ASSERT_TRUE(b2.decode(got));
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].vars, (std::vector<int>{5, 6}));
}

// --- receiver-side certification ----------------------------------------------

namespace {

/// Vertices reachable from the root over modeled, non-deleted arcs with the
/// support's arcs removed — the certification semantics, recomputed the
/// obvious way.
std::vector<char> reachableWithoutSupport(const steiner::SapInstance& inst,
                                          const std::vector<int>& vars) {
    const steiner::Graph& g = inst.graph;
    std::vector<char> banned(2 * static_cast<std::size_t>(g.numEdges()), 0);
    for (int v : vars) banned[static_cast<std::size_t>(inst.varArc[v])] = 1;
    std::vector<char> seen(static_cast<std::size_t>(g.numVertices()), 0);
    std::vector<int> stack{inst.root};
    seen[static_cast<std::size_t>(inst.root)] = 1;
    while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        for (int e : g.incident(v)) {
            if (g.edge(e).deleted) continue;
            const int a = (g.edge(e).u == v) ? 2 * e : 2 * e + 1;
            if (inst.arcVar[a] < 0 || banned[static_cast<std::size_t>(a)])
                continue;
            const int w = g.edge(e).u == v ? g.edge(e).v : g.edge(e).u;
            if (!seen[static_cast<std::size_t>(w)]) {
                seen[static_cast<std::size_t>(w)] = 1;
                stack.push_back(w);
            }
        }
    }
    return seen;
}

bool supportIsValidCut(const steiner::SapInstance& inst,
                       const std::vector<int>& vars) {
    const std::vector<char> seen = reachableWithoutSupport(inst, vars);
    for (int t : inst.graph.terminals())
        if (!seen[static_cast<std::size_t>(t)]) return true;
    return false;
}

steiner::SapInstance hypercubeInstance(std::uint64_t seed) {
    steiner::ReductionStats none;
    return steiner::buildSapInstance(steiner::genHypercube(4, true, seed),
                                     none);
}

}  // namespace

TEST(CutShare, InvalidSharedCutsAreRejectedAndNeverEnterTheLp) {
    steiner::SapInstance inst = hypercubeInstance(3);
    // Reference optimum from an isolated solve.
    cip::Solver ref;
    ref.setModel(inst.model);
    ugcip::SteinerUserPlugins plugins(inst);
    plugins.installPlugins(ref);
    ASSERT_EQ(ref.solve(), cip::Status::Optimal);

    // Every single-arc support whose removal keeps all terminals reachable
    // is NOT a valid Steiner cut; prime them all, as a hostile peer would.
    ug::CutBundle bad;
    int nBad = 0;
    for (int v = 0; v < inst.numArcs(); ++v) {
        if (supportIsValidCut(inst, {v})) continue;
        ASSERT_TRUE(bad.append({v}));
        ++nBad;
    }
    ASSERT_GT(nBad, 0) << "instance has no non-bridge arcs?";

    cip::Solver solver;
    solver.setModel(inst.model);
    plugins.installPlugins(solver);
    // Mirror the ParaSolver order: init (which resets stats), then prime.
    solver.initSolve();
    plugins.primeSharedCuts(solver, bad);
    ASSERT_EQ(solver.solve(), cip::Status::Optimal);

    const cip::Stats& s = solver.stats();
    EXPECT_EQ(s.shareCutsReceived, nBad);
    // Certification is the only gate to the LP: nothing invalid may pass.
    EXPECT_EQ(s.shareCutsAdmitted, 0);
    EXPECT_GT(s.shareCutsInvalid, 0);
    EXPECT_LE(s.shareCutsInvalid, nBad);
    // And the poison had no effect on the optimum.
    EXPECT_NEAR(solver.incumbent().obj, ref.incumbent().obj, 1e-9);
}

TEST(CutShare, HarvestedCutsPrimeAFreshSolverAndPassCertification) {
    steiner::SapInstance inst = hypercubeInstance(5);
    ugcip::SteinerUserPlugins plugins(inst);

    cip::Solver a;
    a.setModel(inst.model);
    plugins.installPlugins(a);
    ASSERT_EQ(a.solve(), cip::Status::Optimal);
    ug::CutBundle bundle = plugins.collectShareableCuts(a, 16);
    ASSERT_GT(bundle.count(), 0);

    // Each harvested support is a genuine Steiner cut.
    std::vector<ug::CutSupport> cuts;
    ASSERT_TRUE(bundle.decode(cuts));
    for (const auto& cs : cuts)
        EXPECT_TRUE(supportIsValidCut(inst, cs.vars));

    // A fresh solver primed with them certifies all of them, rejects none,
    // and admits the ones its first LPs find violated.
    cip::Solver b;
    b.setModel(inst.model);
    plugins.installPlugins(b);
    b.initSolve();  // ParaSolver order: init (stats reset), then prime
    plugins.primeSharedCuts(b, bundle);
    ASSERT_EQ(b.solve(), cip::Status::Optimal);
    const cip::Stats& s = b.stats();
    EXPECT_EQ(s.shareCutsReceived, bundle.count());
    EXPECT_EQ(s.shareCutsInvalid, 0);
    EXPECT_GT(s.shareCutsAdmitted, 0);
    EXPECT_NEAR(b.incumbent().obj, a.incumbent().obj, 1e-9);
}

// --- post-ship frontier accounting (LC fix) -----------------------------------

namespace {

class RecordingComm : public ug::ParaComm {
public:
    explicit RecordingComm(int size) : size_(size) {}
    int size() const override { return size_; }
    void send(int src, int dest, ug::Message msg) override {
        msg.src = src;
        sent.emplace_back(dest, std::move(msg));
    }
    double now(int) const override { return 0.0; }

    int count(ug::Tag tag, int dest) const {
        int n = 0;
        for (const auto& [d, m] : sent)
            if (d == dest && m.tag == tag) ++n;
        return n;
    }
    const ug::Message* last(ug::Tag tag, int dest) const {
        const ug::Message* found = nullptr;
        for (const auto& [d, m] : sent)
            if (d == dest && m.tag == tag) found = &m;
        return found;
    }

    std::vector<std::pair<int, ug::Message>> sent;

private:
    int size_;
};

ug::Message statusMsg(int src, std::int64_t openNodes,
                      std::int64_t nodesProcessed,
                      std::int64_t lpIterations) {
    ug::Message m;
    m.tag = ug::Tag::Status;
    m.src = src;
    m.dualBound = -10.0;
    m.openNodes = openNodes;
    m.nodesProcessed = nodesProcessed;
    m.lpEffort.lpIterations = lpIterations;
    return m;
}

ug::Message transferMsg(int src) {
    ug::Message m;
    m.tag = ug::Tag::NodeTransfer;
    m.src = src;
    m.desc.boundChanges.push_back({0, 0, 1});
    m.desc.lowerBound = -900.0;
    return m;
}

ug::Message terminatedMsg(int src) {
    ug::Message m;
    m.tag = ug::Tag::Terminated;
    m.src = src;
    m.completed = true;
    m.dualBound = -5.0;
    return m;
}

}  // namespace

TEST(UgCollectMode, NodeTransfersDebitTheSupplierFrontier) {
    // Rank 1 reports 6 open nodes, gets engaged as a supplier, and ships 5
    // of them before its next Status. The coordinator must account each
    // ship: when the pool later drains, rank 1's frontier is ONE heavy node
    // (weight 1000 >= 256), so the re-engagement is the ramp-down keep=0
    // form. With the stale pre-ship count (6) it would be re-engaged as an
    // ordinary keep=1 supplier — the regression this test pins down.
    ug::UgConfig cfg;
    cfg.numSolvers = 2;
    RecordingComm comm(cfg.numSolvers + 1);
    ug::LoadCoordinator lc(comm, cfg);
    lc.start({});  // root to rank 1; rank 2 idle

    lc.handleMessage(statusMsg(1, 6, 6, 6000));
    ASSERT_EQ(comm.count(ug::Tag::StartCollecting, 1), 1);
    ASSERT_EQ(comm.last(ug::Tag::StartCollecting, 1)->collectKeep, 1);

    // 5 ships: the first feeds idle rank 2, the rest pool up until the
    // coordinator calls the pool full and stops the collection.
    for (int i = 0; i < 5; ++i) lc.handleMessage(transferMsg(1));
    ASSERT_EQ(comm.count(ug::Tag::StopCollecting, 1), 1);

    // Rank 2 chews through the pooled nodes; when the last one finishes the
    // pool is empty, rank 2 idles, and the coordinator looks for suppliers.
    for (int i = 0; i < 5; ++i) lc.handleMessage(terminatedMsg(2));

    ASSERT_EQ(comm.count(ug::Tag::StartCollecting, 1), 2);
    EXPECT_EQ(comm.last(ug::Tag::StartCollecting, 1)->collectKeep, 0);
}

// --- end-to-end sharing under SimEngine ---------------------------------------

TEST(CutShare, SimulatedSharingMatchesOracleAndIsDeterministic) {
    steiner::Graph g = steiner::genHypercube(4, true, 3);
    auto opt = steiner::steinerDpOptimal(g);
    ASSERT_TRUE(opt.has_value());
    steiner::SteinerSolver seq(g);
    seq.presolve();
    ASSERT_FALSE(seq.instance().trivial());

    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    ug::UgResult r1 =
        ugcip::solveSteinerParallel(seq.instance(), cfg, /*simulated=*/true);
    ug::UgResult r2 =
        ugcip::solveSteinerParallel(seq.instance(), cfg, /*simulated=*/true);

    ASSERT_EQ(r1.status, ug::UgStatus::Optimal);
    steiner::SteinerResult sr = ugcip::toSteinerResult(seq, r1);
    EXPECT_NEAR(sr.cost, *opt, 1e-6);

    // Sharing actually happened, the pipe is loss-free (everything the LC
    // attached was delivered and counted by a receiver), and nothing
    // invalid was ever produced by a genuine solver.
    EXPECT_GT(r1.stats.shareCutsReported, 0);
    EXPECT_GE(r1.stats.shareCutsReported, r1.stats.shareCutsPooled);
    EXPECT_EQ(r1.stats.shareCutsReceived, r1.stats.shareCutsSent);
    EXPECT_EQ(r1.stats.shareCutsInvalid, 0);

    // Bit-determinism: identical runs, identical trace.
    EXPECT_DOUBLE_EQ(r1.elapsed, r2.elapsed);
    EXPECT_EQ(r1.stats.totalNodesProcessed, r2.stats.totalNodesProcessed);
    EXPECT_EQ(r1.stats.sepaFlowSolves, r2.stats.sepaFlowSolves);
    EXPECT_EQ(r1.stats.shareCutsReported, r2.stats.shareCutsReported);
    EXPECT_EQ(r1.stats.shareCutsPooled, r2.stats.shareCutsPooled);
    EXPECT_EQ(r1.stats.shareCutsSent, r2.stats.shareCutsSent);
    EXPECT_EQ(r1.stats.shareCutsAdmitted, r2.stats.shareCutsAdmitted);
    EXPECT_DOUBLE_EQ(r1.best.obj, r2.best.obj);
}

TEST(CutShare, DisablingShareSilencesAllMachinery) {
    steiner::Graph g = steiner::genHypercube(4, true, 7);
    steiner::SteinerSolver seq(g);
    seq.presolve();
    if (seq.instance().trivial()) GTEST_SKIP() << "presolved away";

    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.baseParams.setBool("stp/share/enable", false);
    ug::UgResult res =
        ugcip::solveSteinerParallel(seq.instance(), cfg, /*simulated=*/true);
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    EXPECT_EQ(res.stats.shareCutsReported, 0);
    EXPECT_EQ(res.stats.shareCutsPooled, 0);
    EXPECT_EQ(res.stats.shareCutsSent, 0);
    EXPECT_EQ(res.stats.shareCutsReceived, 0);
    EXPECT_EQ(res.stats.shareCutsAdmitted, 0);
    EXPECT_EQ(res.stats.shareCutsInvalid, 0);
}

TEST(CutShare, SharingSavesMaxFlowSolvesOnHypercube4) {
    // The ramp-up claim of cut sharing as a count: on the same instance and
    // rank count, shared supports let solvers skip max-flow separation
    // rounds (their summed flow solves drop) at the same optimum.
    steiner::Graph g = steiner::genHypercube(4, true, 1);
    steiner::SteinerSolver seq(g);
    seq.presolve();
    ASSERT_FALSE(seq.instance().trivial());

    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    const ug::UgResult shared =
        ugcip::solveSteinerParallel(seq.instance(), cfg, /*simulated=*/true);
    cfg.baseParams.setBool("stp/share/enable", false);
    const ug::UgResult isolated =
        ugcip::solveSteinerParallel(seq.instance(), cfg, /*simulated=*/true);

    ASSERT_EQ(shared.status, ug::UgStatus::Optimal);
    ASSERT_EQ(isolated.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(ugcip::toSteinerResult(seq, shared).cost,
                ugcip::toSteinerResult(seq, isolated).cost, 1e-6);
    EXPECT_LT(shared.stats.sepaFlowSolves, isolated.stats.sepaFlowSolves);
}
