// The solver-lifetime dominance-filtered cut pool: randomized verdicts and
// eviction sets against a brute-force subset oracle, pool/LP binding
// consistency across aging and overflow pruning (the stale cutLpIndex_
// regression), warm-vs-cold separation equivalence with the pool enabled,
// and the LP-leanness property — dominance filtering keeps the mean LP rows
// per separation round at or below the append-only baseline without
// weakening the root dual bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "cip/solver.hpp"
#include "steiner/cutpool.hpp"
#include "steiner/instances.hpp"
#include "steiner/plugins.hpp"
#include "steiner/reductions.hpp"
#include "steiner/stpmodel.hpp"
#include "steiner/stpsolver.hpp"

using namespace steiner;

// --- pool unit behaviour ------------------------------------------------------

TEST(CutPool, DuplicateAndDominanceBasics) {
    CutPool pool;
    int id123 = -1;
    std::vector<int> evicted;

    ASSERT_EQ(pool.offer({1, 2, 3}, &id123, &evicted),
              CutPool::Verdict::Admitted);
    EXPECT_TRUE(evicted.empty());
    EXPECT_TRUE(pool.contains(id123));
    EXPECT_EQ(pool.size(), 1u);

    // Exact duplicate (unsorted, with repeats) is rejected.
    EXPECT_EQ(pool.offer({3, 1, 2, 2}), CutPool::Verdict::Duplicate);
    // Strict superset of a pooled cut is weaker: rejected.
    EXPECT_EQ(pool.offer({1, 2, 3, 4}), CutPool::Verdict::Dominated);
    EXPECT_EQ(pool.size(), 1u);

    // A strict subset is stronger: admitted, evicting the pooled superset.
    int id23 = -1;
    ASSERT_EQ(pool.offer({2, 3}, &id23, &evicted),
              CutPool::Verdict::Admitted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], id123);
    EXPECT_FALSE(pool.contains(id123));
    EXPECT_TRUE(pool.contains(id23));
    EXPECT_EQ(pool.size(), 1u);

    // Disjoint support coexists.
    EXPECT_EQ(pool.offer({7, 9}), CutPool::Verdict::Admitted);
    EXPECT_EQ(pool.size(), 2u);

    // One subset can evict several pooled supersets at once.
    ASSERT_EQ(pool.offer({2, 3, 7}), CutPool::Verdict::Dominated);
    int id3 = -1;
    ASSERT_EQ(pool.offer({3}, &id3, &evicted), CutPool::Verdict::Admitted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], id23);
    EXPECT_EQ(pool.size(), 2u);  // {3} and {7,9}

    const CutPoolStats& s = pool.stats();
    EXPECT_EQ(s.offered, 7);
    EXPECT_EQ(s.admitted, 4);
    EXPECT_EQ(s.dupRejected, 1);
    EXPECT_EQ(s.dominatedRejected, 2);
    EXPECT_EQ(s.dominatedEvicted, 2);
}

TEST(CutPool, RemoveAllowsReadmission) {
    CutPool pool;
    int id = -1;
    ASSERT_EQ(pool.offer({0, 5}, &id), CutPool::Verdict::Admitted);
    EXPECT_EQ(pool.offer({0, 5}), CutPool::Verdict::Duplicate);
    pool.remove(id);
    EXPECT_FALSE(pool.contains(id));
    EXPECT_EQ(pool.size(), 0u);
    // After removal (= the solver aged the row out of its LP) the identical
    // cut is no longer a duplicate — the re-admission the lifecycle contract
    // with the conshdlr depends on.
    EXPECT_EQ(pool.offer({0, 5}), CutPool::Verdict::Admitted);
    EXPECT_EQ(pool.size(), 1u);
    // Empty supports are never tracked and leave no trace.
    int untouched = -7;
    std::vector<int> evicted{42};
    EXPECT_EQ(pool.offer({}, &untouched, &evicted),
              CutPool::Verdict::Untracked);
    EXPECT_EQ(untouched, -7);
    EXPECT_TRUE(evicted.empty());
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.stats().untracked, 1);
}

TEST(CutPool, NegativeIdsAreNotPooled) {
    // A support with a negative variable id names no model variable; it is
    // left out like an empty one, so it can neither dominate nor be evicted.
    CutPool pool;
    int untouched = -7;
    std::vector<int> evicted{42};
    EXPECT_EQ(pool.offer({-1, 2}, &untouched, &evicted),
              CutPool::Verdict::Untracked);
    EXPECT_EQ(untouched, -7);
    EXPECT_TRUE(evicted.empty());
    EXPECT_EQ(pool.size(), 0u);
    int id2 = -1;
    ASSERT_EQ(pool.offer({2}, &id2, &evicted), CutPool::Verdict::Admitted);
    EXPECT_TRUE(evicted.empty());
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.stats().untracked, 1);
}

// --- randomized verdicts vs a brute-force dominance oracle --------------------

namespace {

/// Mirror of the pool's specified behaviour, implemented the obvious O(n^2)
/// way over explicit sets.
struct OraclePool {
    std::map<int, std::set<int>> alive;  // pool id -> support

    CutPool::Verdict offer(const std::set<int>& s,
                           std::vector<int>& evicted) const {
        evicted.clear();
        if (s.empty()) return CutPool::Verdict::Untracked;
        for (const auto& [id, p] : alive) {
            if (p == s) return CutPool::Verdict::Duplicate;
            if (std::includes(s.begin(), s.end(), p.begin(), p.end()))
                return CutPool::Verdict::Dominated;
        }
        for (const auto& [id, p] : alive)
            if (p.size() > s.size() &&
                std::includes(p.begin(), p.end(), s.begin(), s.end()))
                evicted.push_back(id);
        return CutPool::Verdict::Admitted;
    }
};

}  // namespace

TEST(CutPool, RandomizedOpsMatchBruteForceOracle) {
    std::mt19937 rng(20260807);
    const int numVars = 12;
    for (int trial = 0; trial < 40; ++trial) {
        CutPool pool;
        OraclePool oracle;
        std::uniform_int_distribution<int> supportSize(1, 5);
        std::uniform_int_distribution<int> var(0, numVars - 1);
        std::uniform_int_distribution<int> op(0, 9);

        for (int step = 0; step < 300; ++step) {
            if (op(rng) == 0 && !oracle.alive.empty()) {
                // Random removal (models the solver aging a cut out).
                auto it = oracle.alive.begin();
                std::advance(it, static_cast<long>(
                                     rng() % oracle.alive.size()));
                pool.remove(it->first);
                oracle.alive.erase(it);
            } else {
                // Random offer over a tiny var universe so duplicates,
                // subsets and supersets all occur frequently.
                std::vector<int> support(
                    static_cast<std::size_t>(supportSize(rng)));
                for (int& v : support) v = var(rng);
                const std::set<int> s(support.begin(), support.end());

                std::vector<int> expectEvicted;
                const CutPool::Verdict expect = oracle.offer(s, expectEvicted);

                int id = -1;
                std::vector<int> evicted;
                const CutPool::Verdict got = pool.offer(support, &id, &evicted);
                ASSERT_EQ(got, expect)
                    << "trial " << trial << " step " << step;
                if (expect == CutPool::Verdict::Admitted) {
                    std::sort(expectEvicted.begin(), expectEvicted.end());
                    std::sort(evicted.begin(), evicted.end());
                    ASSERT_EQ(evicted, expectEvicted)
                        << "trial " << trial << " step " << step;
                    for (int e : evicted) oracle.alive.erase(e);
                    ASSERT_GE(id, 0);
                    ASSERT_EQ(oracle.alive.count(id), 0u)
                        << "pool reused a live id";
                    oracle.alive[id] = s;
                    // The stored signature is the sorted unique support.
                    ASSERT_TRUE(pool.contains(id));
                    ASSERT_EQ(std::set<int>(pool.support(id).begin(),
                                            pool.support(id).end()),
                              s);
                }
            }
            ASSERT_EQ(pool.size(), oracle.alive.size())
                << "trial " << trial << " step " << step;
        }
        // The surviving pool is an antichain: no pooled support contains
        // another.
        for (const auto& [ida, a] : oracle.alive)
            for (const auto& [idb, b] : oracle.alive)
                if (ida != idb) {
                    ASSERT_FALSE(std::includes(a.begin(), a.end(), b.begin(),
                                               b.end()))
                        << "pool kept a dominated cut";
                }
    }
}

// --- pool/LP binding consistency across aging + overflow pruning --------------

namespace {

/// Event handler asserting the PoolCut invariant at every processed node:
/// with a built LP every pooled cut occupies a distinct valid LP row, with a
/// scheduled rebuild every lpIndex is -1. The pre-fix code pruned cutPool_
/// in manageCutPool without touching cutLpIndex_, so after two aging passes
/// between rebuilds the survivors' duals were read from the wrong LP rows.
class BindingChecker : public cip::EventHandler {
public:
    BindingChecker() : EventHandler("binding_check", 0) {}
    void onNodeProcessed(cip::Solver& solver) override {
        ++nodes;
        if (!solver.cutLpBindingConsistent()) ++violations;
    }
    int nodes = 0;
    int violations = 0;
};

}  // namespace

TEST(StpCutPool, PoolLpBindingSurvivesAgingAndOverflowPruning) {
    for (std::uint64_t seed : {1u, 3u, 7u}) {
        Graph g = genHypercube(4, true, seed);
        ReductionStats none;
        SapInstance inst = buildSapInstance(std::move(g), none);

        cip::Solver solver;
        solver.setModel(inst.model);
        installStpPlugins(solver, inst);
        // A pool this small overflows on nearly every separation round, so
        // manageCutPool prunes (and schedules rebuilds) constantly — the
        // exact traffic pattern that exposed the stale-index bug.
        solver.params().setInt("separating/maxpoolsize", 6);
        auto checker = std::make_unique<BindingChecker>();
        BindingChecker* bc = checker.get();
        solver.addEventHandler(std::move(checker));

        const cip::Status st = solver.solve();
        EXPECT_EQ(st, cip::Status::Optimal) << "seed " << seed;
        EXPECT_GT(bc->nodes, 0) << "seed " << seed;
        EXPECT_EQ(bc->violations, 0) << "seed " << seed;
        // The tiny pool must actually have forced retirements, or this test
        // proved nothing.
        EXPECT_GT(solver.stats().cutsRetired, 0) << "seed " << seed;
    }
}

TEST(StpCutPool, TinyPoolPruningDoesNotChangeTheOptimum) {
    // Prune-crazy pool vs default pool: aging cuts out of the LP (and
    // re-admitting them through the dominance pool when they re-violate)
    // must not change the optimum the B&B converges to.
    Graph g = genHypercube(4, true, 2);

    SteinerSolver ref(g);
    ref.presolve();
    SteinerResult base = ref.solve({});
    ASSERT_EQ(base.status, cip::Status::Optimal);

    ReductionStats none;
    Graph g2 = genHypercube(4, true, 2);
    SapInstance inst = buildSapInstance(std::move(g2), none);
    cip::Solver solver;
    solver.setModel(inst.model);
    installStpPlugins(solver, inst);
    solver.params().setInt("separating/maxpoolsize", 4);
    ASSERT_EQ(solver.solve(), cip::Status::Optimal);
    // Reductions preserve the optimum, so the raw model's objective plus its
    // fixed cost must match the reference result exactly.
    EXPECT_NEAR(solver.incumbent().obj + inst.fixedCost, base.cost, 1e-6);
}

// --- warm-vs-cold separation equivalence with the pool enabled ----------------

TEST(StpCutPool, WarmAndColdSeparationAgreeWithPoolOn) {
    for (std::uint64_t seed : {2u, 4u, 8u}) {
        Graph g = genHypercube(4, true, seed);

        cip::ParamSet warm;
        warm.setBool("stp/sepa/pooldominance", true);
        warm.setBool("stp/sepa/warmstart", true);

        cip::ParamSet cold;
        cold.setBool("stp/sepa/pooldominance", true);
        cold.setBool("stp/sepa/warmstart", false);

        SteinerSolver a(g);
        a.presolve();
        SteinerResult ra = a.solve(warm);

        SteinerSolver b(g);
        b.presolve();
        SteinerResult rb = b.solve(cold);

        ASSERT_EQ(ra.status, cip::Status::Optimal) << "seed " << seed;
        ASSERT_EQ(rb.status, cip::Status::Optimal) << "seed " << seed;
        EXPECT_NEAR(ra.cost, rb.cost, 1e-6) << "seed " << seed;
        EXPECT_NEAR(ra.dualBound, rb.dualBound, 1e-6) << "seed " << seed;
    }
}

// --- LP leanness: dominance filtering vs the append-only baseline -------------

namespace {

struct RootStats {
    double meanRows = 0.0;
    double dualBound = -kInfCost;
    cip::Stats stats;
};

/// Root-node-only solve on the raw SAP model (no reductions, so the LP and
/// its separation rounds are non-trivial) with the pool on or off.
RootStats rootSeparationRun(const Graph& g, bool dominance) {
    ReductionStats none;
    Graph copy = g;
    SapInstance inst = buildSapInstance(std::move(copy), none);
    cip::Solver solver;
    solver.setModel(inst.model);
    solver.params().setBool("stp/sepa/pooldominance", dominance);
    solver.params().setReal("limits/nodes", 1);
    // Let root separation run to convergence in both configurations: a
    // mid-flight round or cut budget would compare two arbitrary prefixes of
    // different separation trajectories instead of the settled root bounds.
    solver.params().setInt("separating/maxroundsroot", 200);
    solver.params().setInt("stp/sepa/maxcuts", 64);
    // Disable the tailing-off stall exit: it can stop the two trajectories
    // at slightly different near-fixpoint objectives, which is exactly the
    // noise this comparison must not measure.
    solver.params().setReal("separating/tailoffeps", -1.0);
    // Near-exact separation: with the default 0.05 violation tolerance each
    // trajectory parks at a different point inside the tolerance band, so
    // the bounds are only band-equal. A tiny tolerance makes both runs
    // converge to the unique separation-closure bound of the root LP.
    solver.params().setReal("stp/sepa/violationtol", 1e-6);
    // The incremental reduction engine can solve easy instances outright at
    // the root (heuristic incumbent + bound-based fixing) before a single
    // separation round runs; this test measures separation trajectories, so
    // turn reduction propagation off.
    solver.params().setInt("stp/redprop/freq", 0);
    installStpPlugins(solver, inst);
    solver.solve();
    RootStats rs;
    rs.stats = solver.stats();
    rs.dualBound = solver.dualBound();
    if (rs.stats.sepaRounds > 0)
        rs.meanRows = static_cast<double>(rs.stats.sepaLpRowsSum) /
                      static_cast<double>(rs.stats.sepaRounds);
    return rs;
}

}  // namespace

TEST(StpCutPool, DominanceKeepsLpRowsPerRoundAtOrBelowAppendOnly) {
    double sumOn = 0.0, sumOff = 0.0;
    std::int64_t filtered = 0;
    std::vector<Graph> instances;
    for (std::uint64_t seed : {1u, 2u, 3u})
        instances.push_back(genHypercube(5, true, seed));
    for (std::uint64_t seed : {11u, 12u})
        instances.push_back(genGrid(9, 2, 5, seed));  // chain-like ladders

    for (std::size_t i = 0; i < instances.size(); ++i) {
        const RootStats off = rootSeparationRun(instances[i], false);
        const RootStats on = rootSeparationRun(instances[i], true);
        ASSERT_GT(off.stats.sepaRounds, 0) << "instance " << i;
        ASSERT_GT(on.stats.sepaRounds, 0) << "instance " << i;
        // Never leaner off than on, and the root dual bound never weakens.
        EXPECT_LE(on.meanRows, off.meanRows + 1e-9) << "instance " << i;
        EXPECT_GE(on.dualBound, off.dualBound - 1e-9) << "instance " << i;
        sumOn += on.meanRows;
        sumOff += off.meanRows;
        filtered += on.stats.cutDupRejected + on.stats.cutDominatedRejected +
                    on.stats.cutDominatedEvicted;
        // The baseline run must not have been filtering anything.
        EXPECT_EQ(off.stats.cutDupRejected, 0) << "instance " << i;
        EXPECT_EQ(off.stats.cutDominatedRejected, 0) << "instance " << i;
    }
    // Across the seed set the dominance pool is strictly leaner, and it got
    // there by actually rejecting/evicting cuts.
    EXPECT_LT(sumOn, sumOff);
    EXPECT_GT(filtered, 0);
}

TEST(StpCutPool, PoolCountersReachSolverStats) {
    // End-to-end: the conshdlr's CutPool deltas land in cip::Stats, where
    // the UG layer's LpEffort report picks them up.
    Graph g = genHypercube(4, true, 1);
    ReductionStats none;
    SapInstance inst = buildSapInstance(std::move(g), none);
    cip::Solver solver;
    solver.setModel(inst.model);
    installStpPlugins(solver, inst);
    ASSERT_EQ(solver.solve(), cip::Status::Optimal);
    const cip::Stats& s = solver.stats();
    EXPECT_GT(s.sepaRounds, 0);
    EXPECT_GT(s.sepaLpRowsSum, 0);
    // Duplicate re-finds across rounds are the pool's bread and butter on a
    // hypercube; at least some filtering must have happened.
    EXPECT_GT(s.cutDupRejected + s.cutDominatedRejected +
                  s.cutDominatedEvicted,
              0);
    EXPECT_GE(s.cutPoolSize, 0);
}
