// Google-benchmark microbenchmarks for the computational kernels under the
// solvers: simplex (cold/warm), max-flow separation, symmetric eigen, dual
// ascent, reduction package and the SDP interior-point method.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "cip/solver.hpp"
#include "linalg/eigen.hpp"
#include "lp/dense_simplex.hpp"
#include "lp/simplex.hpp"
#include "sdp/ipm.hpp"
#include "steiner/cutsep.hpp"
#include "steiner/plugins.hpp"
#include "steiner/dualascent.hpp"
#include "steiner/heuristics.hpp"
#include "steiner/instances.hpp"
#include "steiner/maxflow.hpp"
#include "steiner/reductions.hpp"
#include "steiner/stpmodel.hpp"
#include "steiner/stpsolver.hpp"
#include "ugcip/stp_plugins.hpp"

namespace {

lp::LpModel randomLp(int n, int rows, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> coef(-2.0, 2.0);
    lp::LpModel m;
    for (int j = 0; j < n; ++j) m.addCol(coef(rng), 0.0, 3.0);
    for (int i = 0; i < rows; ++i) {
        std::vector<std::pair<int, double>> cs;
        for (int j = 0; j < n; ++j) cs.emplace_back(j, coef(rng));
        m.addRow(lp::Row(std::move(cs), -5.0, 5.0));
    }
    return m;
}

void BM_SimplexCold(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    lp::LpModel m = randomLp(n, n, 42);
    for (auto _ : state) {
        lp::SimplexSolver s;
        s.load(m);
        benchmark::DoNotOptimize(s.solve());
    }
}
BENCHMARK(BM_SimplexCold)->Arg(20)->Arg(60)->Arg(120);

void BM_SimplexWarmCut(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    lp::LpModel m = randomLp(n, n, 7);
    std::mt19937 rng(1);
    std::uniform_real_distribution<double> coef(-1.0, 1.0);
    for (auto _ : state) {
        state.PauseTiming();
        lp::SimplexSolver s;
        s.load(m);
        s.solve();
        std::vector<std::pair<int, double>> cs;
        for (int j = 0; j < n; ++j) cs.emplace_back(j, coef(rng));
        std::vector<lp::Row> cut{lp::Row(std::move(cs), -3.0, 3.0)};
        state.ResumeTiming();
        benchmark::DoNotOptimize(s.addRowsAndResolve(cut));
    }
}
BENCHMARK(BM_SimplexWarmCut)->Arg(20)->Arg(60)->Arg(120);

/// LP shaped like a SCIP-Jack cut relaxation: one 0/1 column per edge with
/// a positive cost, and sparse ">= 1" Steiner-cut rows (a handful of unit
/// coefficients each). Dense random LPs hide exactly the structure the
/// sparse engine exploits, so the warm-start comparison uses this shape.
lp::LpModel steinerCutLp(int n, int rows, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> cost(0.5, 2.0);
    std::uniform_int_distribution<int> nnz(4, 8);
    std::uniform_int_distribution<int> col(0, n - 1);
    lp::LpModel m;
    for (int j = 0; j < n; ++j) m.addCol(cost(rng), 0.0, 1.0);
    for (int i = 0; i < rows; ++i) {
        std::vector<std::pair<int, double>> cs;
        int k = nnz(rng);
        for (int t = 0; t < k; ++t) cs.emplace_back(col(rng), 1.0);
        cs.emplace_back(i % n, 1.0);  // connect every column eventually
        std::sort(cs.begin(), cs.end());
        cs.erase(std::unique(cs.begin(), cs.end(),
                             [](auto& a, auto& b) { return a.first == b.first; }),
                 cs.end());
        m.addRow(lp::Row(std::move(cs), 1.0, lp::kInf));
    }
    return m;
}

/// Branching-style reoptimization: exclude one edge (ub -> 0), resolve,
/// re-admit it, resolve. Exactly the node-LP pattern the B&B tree produces.
template <class SolverT>
void simplexWarmLoop(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    lp::LpModel m = steinerCutLp(n, n, 11);
    SolverT s;
    s.load(m);
    if (s.solve() != lp::SolveStatus::Optimal) {
        state.SkipWithError("baseline solve not optimal");
        return;
    }
    int j = 0;
    bool down = true;
    for (auto _ : state) {
        s.changeBounds(j, 0.0, down ? 0.0 : 1.0);
        benchmark::DoNotOptimize(s.resolve());
        if (!down) j = (j + 7) % n;
        down = !down;
    }
    state.SetItemsProcessed(state.iterations());
}

/// Sparse-engine warm-resolve loop. Emits the kernel-health counters
/// bench-smoke archives in BENCH_lp.json: simplex iterations and
/// (re)factorizations per resolve, and the current L+U fill at exit.
void BM_SimplexWarm(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    lp::LpModel m = steinerCutLp(n, n, 11);
    lp::SimplexSolver s;
    s.load(m);
    if (s.solve() != lp::SolveStatus::Optimal) {
        state.SkipWithError("baseline solve not optimal");
        return;
    }
    const long iters0 = s.iterations();
    const long factor0 = s.factorizations();
    const long hyper0 = s.hyperSolves();
    const long dense0 = s.denseSolves();
    const long nnz0 = s.solveNnzSum();
    int j = 0;
    bool down = true;
    for (auto _ : state) {
        s.changeBounds(j, 0.0, down ? 0.0 : 1.0);
        benchmark::DoNotOptimize(s.resolve());
        if (!down) j = (j + 7) % n;
        down = !down;
    }
    state.SetItemsProcessed(state.iterations());
    const double resolves = static_cast<double>(std::max<int64_t>(
        state.iterations(), 1));
    state.counters["iters_per_resolve"] =
        static_cast<double>(s.iterations() - iters0) / resolves;
    state.counters["factor_per_resolve"] =
        static_cast<double>(s.factorizations() - factor0) / resolves;
    state.counters["fill"] = static_cast<double>(s.factorFill());
    // Sparsity split of the warm phase's basis solves: reach-kernel vs
    // dense-loop answers, and the mean result support they produced.
    const double hyper = static_cast<double>(s.hyperSolves() - hyper0);
    const double dense = static_cast<double>(s.denseSolves() - dense0);
    state.counters["hyper_solves"] = hyper / resolves;
    state.counters["dense_solves"] = dense / resolves;
    state.counters["mean_result_nnz"] =
        static_cast<double>(s.solveNnzSum() - nnz0) /
        std::max(hyper + dense, 1.0);
}

// Sizes span the realistic Steiner-cut range (SteinLib instances have
// hundreds to thousands of edge columns). The dense engine pays O(m^2) per
// pivot, so the sparse advantage grows with size; the LU kernel's bounded
// fill growth is what makes the small end (150) win too.
BENCHMARK(BM_SimplexWarm)->Arg(150)->Arg(300)->Arg(600);

void BM_SimplexWarmDense(benchmark::State& state) {
    simplexWarmLoop<lp::DenseSimplexSolver>(state);
}
BENCHMARK(BM_SimplexWarmDense)->Arg(150)->Arg(300)->Arg(600);

void BM_SimplexBasisReload(benchmark::State& state) {
    // Cost of restoring a parent basis snapshot (refactorize + 0-pivot
    // resolve) — the warm-start path cip::Solver::step() takes after a
    // best-bound jump.
    const int n = static_cast<int>(state.range(0));
    lp::LpModel m = steinerCutLp(n, n, 13);
    lp::SimplexSolver s;
    s.load(m);
    if (s.solve() != lp::SolveStatus::Optimal) {
        state.SkipWithError("baseline solve not optimal");
        return;
    }
    const lp::Basis snap = s.basis();
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.loadBasis(snap));
        benchmark::DoNotOptimize(s.resolve());
    }
}
BENCHMARK(BM_SimplexBasisReload)->Arg(50)->Arg(150);

void BM_MaxFlowSeparation(benchmark::State& state) {
    steiner::Graph g = steiner::genHypercube(
        static_cast<int>(state.range(0)), true, 3);
    std::mt19937 rng(3);
    std::uniform_real_distribution<double> cap(0.0, 1.0);
    for (auto _ : state) {
        steiner::MaxFlow mf(g.numVertices());
        for (int e = 0; e < g.numEdges(); ++e) {
            mf.addArc(g.edge(e).u, g.edge(e).v, cap(rng));
            mf.addArc(g.edge(e).v, g.edge(e).u, cap(rng));
        }
        benchmark::DoNotOptimize(mf.solve(0, g.numVertices() - 1));
    }
}
BENCHMARK(BM_MaxFlowSeparation)->Arg(4)->Arg(6)->Arg(8);

/// A Steiner separation round on a hypercube instance at a realistic
/// fractional LP point: the capped mix of two heuristic trees, so most
/// terminals are (nearly) satisfied and a few are violated — the situation
/// after a couple of root cut rounds.
struct StpSepaCase {
    steiner::SapInstance inst;
    std::vector<double> x;
};

StpSepaCase makeStpSepaCase(int dim) {
    steiner::Graph g = steiner::genHypercube(dim, true, 3);
    StpSepaCase c{steiner::buildSapInstance(std::move(g),
                                            steiner::ReductionStats{}),
                  {}};
    const steiner::Graph& h = c.inst.graph;
    std::mt19937 rng(17u * static_cast<unsigned>(dim) + 1u);
    std::uniform_real_distribution<double> perturb(0.5, 1.5);
    std::vector<double> o1(h.numEdges()), o2(h.numEdges());
    for (int e = 0; e < h.numEdges(); ++e) {
        o1[e] = h.edge(e).cost * perturb(rng);
        o2[e] = h.edge(e).cost * perturb(rng);
    }
    const steiner::HeuristicSolution t1 = steiner::primalHeuristic(h, 2, &o1);
    const steiner::HeuristicSolution t2 = steiner::primalHeuristic(h, 2, &o2);
    const std::vector<double> x1 = steiner::treeToModelSolution(c.inst, t1.edges);
    const std::vector<double> x2 = steiner::treeToModelSolution(c.inst, t2.edges);
    c.x.resize(x1.size());
    std::uniform_real_distribution<double> thin(0.85, 1.0);
    for (std::size_t i = 0; i < x1.size(); ++i)
        c.x[i] = thin(rng) * std::min(1.0, 0.55 * x1[i] + 0.50 * x2[i]);
    return c;
}

/// New engine: one persistent network, warm-started flows, nested/back
/// cuts, deficit-ordered targets. Counters are per separation round.
void BM_StpSeparationRound(benchmark::State& state) {
    const StpSepaCase c = makeStpSepaCase(static_cast<int>(state.range(0)));
    steiner::CutSeparationEngine engine(c.inst);
    steiner::CutSepaConfig cfg;
    std::vector<int> terms;
    for (int t : c.inst.graph.terminals())
        if (t != c.inst.root) terms.push_back(t);
    std::vector<steiner::SteinerCut> cuts;
    for (auto _ : state) {
        engine.beginRound(c.x, cfg);
        int budget = cfg.maxCuts;
        for (int t : engine.orderByDeficit(terms)) {
            if (budget <= 0) break;
            cuts.clear();
            budget -= engine.separateTarget(t, budget, cuts);
            benchmark::DoNotOptimize(cuts.data());
        }
    }
    const auto& st = engine.stats();
    const double rounds =
        static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
    state.counters["cuts"] = static_cast<double>(st.cutsFound) / rounds;
    state.counters["flow_solves"] = static_cast<double>(st.flowSolves) / rounds;
    state.counters["augmentations"] =
        static_cast<double>(st.augmentations) / rounds;
    state.counters["warm_starts"] = static_cast<double>(st.warmStarts) / rounds;
}
BENCHMARK(BM_StpSeparationRound)->Arg(4)->Arg(6)->Arg(8);

/// Seed baseline: a fresh MaxFlow network built and solved cold for every
/// terminal (the pre-engine StpConshdlr::separateTarget loop), stopping at
/// the same 12-cut round budget.
void BM_StpSeparationRoundRebuild(benchmark::State& state) {
    const StpSepaCase c = makeStpSepaCase(static_cast<int>(state.range(0)));
    const steiner::Graph& g = c.inst.graph;
    std::int64_t cuts = 0, solves = 0;
    for (auto _ : state) {
        int found = 0;
        for (int t : g.terminals()) {
            if (t == c.inst.root) continue;
            steiner::MaxFlow mf(g.numVertices());
            for (std::size_t var = 0; var < c.inst.varArc.size(); ++var) {
                const int a = c.inst.varArc[var];
                const steiner::Edge& e = g.edge(a / 2);
                const int tail = (a % 2 == 0) ? e.u : e.v;
                const int head = (a % 2 == 0) ? e.v : e.u;
                mf.addArc(tail, head, std::max(0.0, c.x[var]));
            }
            const double flow = mf.solve(c.inst.root, t);
            ++solves;
            if (flow >= 1.0 - 0.05) continue;
            std::vector<bool> side = mf.minCutSourceSide(c.inst.root);
            benchmark::DoNotOptimize(side);
            if (++found >= 12) break;
        }
        cuts += found;
    }
    const double rounds =
        static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
    state.counters["cuts"] = static_cast<double>(cuts) / rounds;
    state.counters["flow_solves"] = static_cast<double>(solves) / rounds;
}
BENCHMARK(BM_StpSeparationRoundRebuild)->Arg(4)->Arg(6)->Arg(8);

/// Dominance-filter throughput: a deck of 0/1 ">= 1" cut supports shaped
/// like a long separation run — mostly fresh cuts, with a tail of exact
/// re-discoveries and widened (superset) variants — streamed through
/// cip::SupportPool, the engine under the solver's cut store. Counters
/// report the filter verdict mix per offer.
void BM_CutPoolFilter(benchmark::State& state) {
    const int nvars = static_cast<int>(state.range(0));
    std::mt19937 rng(23u * static_cast<unsigned>(nvars) + 5u);
    std::uniform_int_distribution<int> len(4, 12);
    std::uniform_int_distribution<int> var(0, nvars - 1);
    std::uniform_int_distribution<int> extra(1, 3);
    std::uniform_real_distribution<double> mode(0.0, 1.0);
    std::vector<std::vector<int>> deck;
    deck.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
        const double m = mode(rng);
        if (!deck.empty() && m < 0.2) {  // exact re-discovery
            deck.push_back(
                deck[static_cast<std::size_t>(var(rng)) % deck.size()]);
        } else if (!deck.empty() && m < 0.4) {  // widened variant
            std::vector<int> s =
                deck[static_cast<std::size_t>(var(rng)) % deck.size()];
            for (int k = extra(rng); k > 0; --k) s.push_back(var(rng));
            deck.push_back(std::move(s));
        } else {  // fresh cut
            std::vector<int> s(static_cast<std::size_t>(len(rng)));
            for (int& v : s) v = var(rng);
            deck.push_back(std::move(s));
        }
    }
    // The solver normalises a support once per offer; do it up front so the
    // timed loop measures the dominance engine alone.
    for (std::vector<int>& s : deck) {
        std::sort(s.begin(), s.end());
        s.erase(std::unique(s.begin(), s.end()), s.end());
    }
    cip::SupportPool pool;
    std::vector<int> evicted;
    std::int64_t verdicts[3] = {0, 0, 0};  // Admitted, Duplicate, Dominated
    std::int64_t evictions = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        int id = -1;
        const cip::SupportPool::Verdict v =
            pool.offer(deck[i % deck.size()], 1, id, &evicted);
        benchmark::DoNotOptimize(id);
        ++verdicts[static_cast<int>(v)];
        evictions += static_cast<std::int64_t>(evicted.size());
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
    const double offers =
        static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
    state.counters["admit_rate"] = static_cast<double>(verdicts[0]) / offers;
    state.counters["dup_rate"] = static_cast<double>(verdicts[1]) / offers;
    state.counters["dom_rate"] = static_cast<double>(verdicts[2]) / offers;
    state.counters["evict_rate"] = static_cast<double>(evictions) / offers;
    state.counters["pool_size"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_CutPoolFilter)->Arg(256)->Arg(1024)->Arg(4096);

/// LP leanness at the root: a full root-node cut loop on a raw (unreduced)
/// hypercube SAP model, with the dominance pool on (arg 1) or off (arg 0).
/// The headline counter is the mean LP row count per separation round —
/// the quantity the pool exists to shrink — next to the pool's hit and
/// eviction totals and the settled root dual bound.
void BM_CutPoolRootRows(benchmark::State& state) {
    const int dim = static_cast<int>(state.range(0));
    const bool dominance = state.range(1) != 0;
    const steiner::Graph g = steiner::genHypercube(dim, true, 1);
    double rows = 0.0, dual = 0.0;
    cip::Stats st;
    for (auto _ : state) {
        steiner::Graph copy = g;
        steiner::ReductionStats none;
        steiner::SapInstance inst =
            steiner::buildSapInstance(std::move(copy), none);
        cip::Solver solver;
        solver.setModel(inst.model);
        solver.params().setBool("stp/sepa/pooldominance", dominance);
        solver.params().setReal("limits/nodes", 1);
        solver.params().setInt("separating/maxroundsroot", 200);
        solver.params().setInt("stp/sepa/maxcuts", 64);
        steiner::installStpPlugins(solver, inst);
        solver.solve();
        st = solver.stats();
        rows = st.sepaRounds > 0
                   ? static_cast<double>(st.sepaLpRowsSum) /
                         static_cast<double>(st.sepaRounds)
                   : 0.0;
        dual = solver.dualBound();
        benchmark::DoNotOptimize(dual);
    }
    state.counters["lp_rows_per_round"] = rows;
    state.counters["sepa_rounds"] = static_cast<double>(st.sepaRounds);
    state.counters["pool_dup_rejected"] =
        static_cast<double>(st.cutDupRejected);
    state.counters["pool_dom_rejected"] =
        static_cast<double>(st.cutDominatedRejected);
    state.counters["pool_dom_evicted"] =
        static_cast<double>(st.cutDominatedEvicted);
    state.counters["cuts_retired"] = static_cast<double>(st.cutsRetired);
    state.counters["root_dual"] = dual;
}
BENCHMARK(BM_CutPoolRootRows)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({5, 0})
    ->Args({5, 1});

/// Cross-solver cut sharing during ramp-up: a full simulated ug[CIP-Jack,*]
/// run on a hypercube seed with the LoadCoordinator's global cut pool on
/// (arg 1) or off (arg 0). The headline counter is the summed max-flow
/// rounds across all solvers — cut-primed node transfers let receivers skip
/// the separation work of re-deriving the fleet's root cuts — next to the
/// final dual bound (must not degrade) and the share-pipeline counters.
/// SimEngine makes every run bit-deterministic, so the counters are exact.
void BM_CutShareRampup(benchmark::State& state) {
    const int dim = static_cast<int>(state.range(0));
    const bool share = state.range(1) != 0;
    const steiner::Graph g = steiner::genHypercube(dim, true, 1);
    ug::UgResult res;
    for (auto _ : state) {
        steiner::Graph copy = g;
        steiner::SteinerSolver seq(std::move(copy));
        seq.presolve();
        ug::UgConfig cfg;
        cfg.numSolvers = 4;
        cfg.baseParams.setBool("stp/share/enable", share);
        res = ugcip::solveSteinerParallel(seq.instance(), cfg,
                                          /*simulated=*/true);
        benchmark::DoNotOptimize(res.dualBound);
    }
    state.counters["flow_solves"] =
        static_cast<double>(res.stats.sepaFlowSolves);
    state.counters["dual_bound"] = res.dualBound;
    state.counters["nodes"] =
        static_cast<double>(res.stats.totalNodesProcessed);
    state.counters["share_reported"] =
        static_cast<double>(res.stats.shareCutsReported);
    state.counters["share_sent"] =
        static_cast<double>(res.stats.shareCutsSent);
    state.counters["share_admitted"] =
        static_cast<double>(res.stats.shareCutsAdmitted);
    state.counters["share_invalid"] =
        static_cast<double>(res.stats.shareCutsInvalid);
}
BENCHMARK(BM_CutShareRampup)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({5, 0})
    ->Args({5, 1})
    ->Iterations(1);

/// Generic LP reduced-cost fixing + incremental reduction engine on vs off:
/// a full sequential branch-and-cut run on a raw (unreduced) hypercube SAP
/// model with the machinery on (arg 2 = 1, the defaults) or off (arg 2 = 0:
/// reduced-cost fixing disabled, reduction propagation off).
/// Headline counters are the B&B node count and summed LP iterations — the
/// quantities the fixing exists to shrink — next to the optimum (must be
/// identical in both modes) and the fixing/engine counters. The sequential
/// solver has no timing-dependent paths, so every counter is exact and
/// reproducible.
void BM_RedcostFix(benchmark::State& state) {
    const int dim = static_cast<int>(state.range(0));
    const unsigned seed = static_cast<unsigned>(state.range(1));
    const bool fixOn = state.range(2) != 0;
    const steiner::Graph g = steiner::genHypercube(dim, true, seed);
    cip::Stats st;
    double optimum = 0.0;
    for (auto _ : state) {
        steiner::Graph copy = g;
        steiner::ReductionStats none;
        steiner::SapInstance inst =
            steiner::buildSapInstance(std::move(copy), none);
        cip::Solver solver;
        solver.setModel(inst.model);
        if (!fixOn) {
            solver.params().setBool("propagating/redcostfix", false);
            solver.params().setInt("stp/redprop/freq", 0);
        }
        steiner::installStpPlugins(solver, inst);
        solver.solve();
        st = solver.stats();
        optimum = solver.incumbent().obj + inst.model.objOffset;
        benchmark::DoNotOptimize(optimum);
    }
    state.counters["nodes"] = static_cast<double>(st.nodesProcessed);
    state.counters["lp_iterations"] = static_cast<double>(st.lpIterations);
    state.counters["optimum"] = optimum;
    state.counters["redcost_calls"] = static_cast<double>(st.redcostCalls);
    state.counters["redcost_fixed"] =
        static_cast<double>(st.redcostFixings + st.redcostTightenings);
    state.counters["redprop_arcs_fixed"] =
        static_cast<double>(st.redpropArcsFixed);
    state.counters["redprop_lb_skips"] =
        static_cast<double>(st.redpropLbSkips);
    state.counters["da_warm_starts"] =
        static_cast<double>(st.redpropDaWarmStarts);
}
BENCHMARK(BM_RedcostFix)
    ->Args({4, 1, 0})
    ->Args({4, 1, 1})
    ->Args({4, 3, 0})
    ->Args({4, 3, 1})
    ->Args({5, 1, 0})
    ->Args({5, 1, 1})
    ->Iterations(1);

void BM_SymmetricEigen(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> coef(-1.0, 1.0);
    linalg::Matrix a(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = i; j < n; ++j) {
            a(i, j) = coef(rng);
            a(j, i) = a(i, j);
        }
    for (auto _ : state) benchmark::DoNotOptimize(linalg::symmetricEigen(a));
}
BENCHMARK(BM_SymmetricEigen)->Arg(5)->Arg(10)->Arg(20);

void BM_DualAscent(benchmark::State& state) {
    steiner::Graph g =
        steiner::genHypercube(static_cast<int>(state.range(0)), true, 1);
    for (auto _ : state) benchmark::DoNotOptimize(steiner::dualAscent(g));
}
BENCHMARK(BM_DualAscent)->Arg(4)->Arg(5)->Arg(6);

void BM_SteinerPresolve(benchmark::State& state) {
    steiner::Graph g = steiner::genGeometric(
        static_cast<int>(state.range(0)), state.range(0) / 4, 0.4, 17);
    for (auto _ : state) {
        steiner::Graph copy = g;
        benchmark::DoNotOptimize(steiner::presolve(copy));
    }
}
BENCHMARK(BM_SteinerPresolve)->Arg(30)->Arg(60)->Arg(100);

void BM_TmHeuristic(benchmark::State& state) {
    steiner::Graph g =
        steiner::genHypercube(static_cast<int>(state.range(0)), false, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(steiner::primalHeuristic(g));
}
BENCHMARK(BM_TmHeuristic)->Arg(4)->Arg(5)->Arg(6);

void BM_SdpInteriorPoint(benchmark::State& state) {
    const int n = static_cast<int>(state.range(0));
    std::mt19937 rng(9);
    std::uniform_real_distribution<double> coef(-1.0, 1.0);
    sdp::SdpProblem p;
    p.init(3);
    p.b = {coef(rng), coef(rng), coef(rng)};
    p.lb.assign(3, -2.0);
    p.ub.assign(3, 2.0);
    sdp::SdpBlock blk;
    blk.dim = n;
    linalg::Matrix c(n, n);
    for (int i = 0; i < n; ++i)
        for (int j = i; j < n; ++j) {
            c(i, j) = coef(rng);
            c(j, i) = c(i, j);
        }
    for (int i = 0; i < n; ++i) c(i, i) += 3.0;
    blk.c = c;
    blk.a.resize(3);
    for (int k = 0; k < 3; ++k) {
        linalg::Matrix a(n, n);
        for (int i = 0; i < n; ++i)
            for (int j = i; j < n; ++j) {
                a(i, j) = coef(rng);
                a(j, i) = a(i, j);
            }
        blk.a[k] = a;
    }
    p.addBlock(std::move(blk));
    for (auto _ : state) benchmark::DoNotOptimize(sdp::solveSdp(p));
}
BENCHMARK(BM_SdpInteriorPoint)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
