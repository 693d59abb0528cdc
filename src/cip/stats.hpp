// Solver statistics: one counter record from the plugin that increments a
// field to the parallel layer's run totals and its checkpoint. The UG layer
// ships a Stats with every worker report (ug::LpEffort), sums reports into
// ug::UgStats (derived from Stats) and serializes them, all through the one
// field list forEachCounterMember() below (see src/cip/README.md).
#pragma once

#include <algorithm>
#include <cstdint>

namespace cip {

/// How the reports of several solvers (or subproblems) combine into a run
/// total: summed counters, or a maximum for depths and gauges.
enum class Kind { Sum, Max };

struct Stats {
    std::int64_t nodesProcessed = 0;
    std::int64_t nodesCreated = 0;
    std::int64_t lpIterations = 0;
    std::int64_t lpFactorizations = 0;  ///< basis (re)factorizations in the LP

    // LP sparsity telemetry (see SimplexSolver::hyperSolves): how many basis
    // solves the hyper-sparse reach kernels answered vs the dense loops, and
    // the summed result support size (mean result nnz = lpSolveNnzSum /
    // (lpHyperSolves + lpDenseSolves)).
    std::int64_t lpHyperSolves = 0;
    std::int64_t lpDenseSolves = 0;
    std::int64_t lpSolveNnzSum = 0;
    std::int64_t cutsAdded = 0;
    std::int64_t solutionsFound = 0;
    int maxDepth = 0;
    std::int64_t totalCost = 0;   ///< deterministic work units spent
    std::int64_t rootCost = 0;    ///< work units spent on the root node
    std::int64_t numericalFailures = 0;  ///< nodes dropped on relax failure
    std::int64_t basisWarmStarts = 0;  ///< node LPs started from parent basis
    std::int64_t strongBranchProbes = 0;  ///< strong-branching LP probes run

    // Separation-engine counters, added by separating plugins (e.g. the
    // Steiner cut engine) as deltas since their previous report.
    std::int64_t sepaFlowSolves = 0;   ///< separation oracle (max-flow) calls
    std::int64_t sepaCutsFound = 0;    ///< violated cuts emitted by plugins
    std::int64_t sepaNestedCuts = 0;   ///< cuts found at nested depth >= 1
    std::int64_t sepaBackCuts = 0;     ///< sink-side back cuts emitted
    int sepaMaxNestedDepth = 0;        ///< deepest nested re-solve chain
    double sepaSeconds = 0.0;          ///< wall time spent in separation

    // LP-leanness counters: how many rows each separation round leaves in
    // the LP (the per-worker hot path the dominance-filtered cut pool is
    // meant to keep small). Mean rows per round = sepaLpRowsSum/sepaRounds.
    std::int64_t sepaRounds = 0;     ///< separation rounds that added cuts
    std::int64_t sepaLpRowsSum = 0;  ///< LP rows after each such round, summed

    // Dominance cut-pool counters, added by pooling plugins (e.g. the
    // Steiner conshdlr's CutPool).
    std::int64_t cutDupRejected = 0;        ///< exact re-finds rejected
    std::int64_t cutDominatedRejected = 0;  ///< weaker incoming cuts rejected
    std::int64_t cutDominatedEvicted = 0;   ///< pooled cuts evicted by subsets
    std::int64_t cutPoolSize = 0;           ///< plugin pool size (gauge)
    std::int64_t cutsRetired = 0;  ///< LP cut rows dropped (aging/dominance)

    // Cross-solver cut sharing (receiver side): supports delivered with the
    // assignment, and their fate at the local certification gate. A decode
    // failure means a whole bundle's framing was corrupt; the coordinator
    // uses the count to quarantine the corrupting link.
    std::int64_t shareCutsReceived = 0;  ///< shared supports queued
    std::int64_t shareCutsAdmitted = 0;  ///< certified + violated, in the LP
    std::int64_t shareCutsInvalid = 0;   ///< failed certification, dropped
    std::int64_t shareCutsDecodeFailures = 0;  ///< bundles rejected as
                                               ///< corrupt at decode

    // Built-in reduced-cost fixing ("propagating/redcostfix"), run after
    // every Optimal LP solve with a finite incumbent.
    std::int64_t redcostCalls = 0;        ///< passes with fresh duals + cutoff
    std::int64_t redcostTightenings = 0;  ///< bounds tightened by the pass
    std::int64_t redcostFixings = 0;      ///< domains closed to a point

    // Graph-reduction propagation counters, added by reduction plugins
    // (e.g. the Steiner ReduceEngine).
    std::int64_t redpropRuns = 0;          ///< reduction passes executed
    std::int64_t redpropArcsFixed = 0;     ///< variables fixed by reductions
    std::int64_t redpropDaWarmStarts = 0;  ///< dual ascents warm-started
    std::int64_t redpropLbSkips = 0;       ///< cached-bound reuses, no recompute
    std::int64_t redpropDaCutsFed = 0;     ///< dual-ascent cuts fed to sepa

    /// Combine another solver's report into this total, field by field
    /// according to its Kind.
    Stats& operator+=(const Stats& o);
};

/// The one list of Stats fields: calls f(&Stats::field, kind) for each, in
/// a fixed order (the checkpoint's serialization order).
template <class F>
void forEachCounterMember(F&& f) {
    using S = Stats;
    for (std::int64_t S::*sum :
         {&S::nodesProcessed, &S::nodesCreated, &S::lpIterations,
          &S::lpFactorizations, &S::lpHyperSolves, &S::lpDenseSolves,
          &S::lpSolveNnzSum, &S::cutsAdded, &S::solutionsFound,
          &S::totalCost, &S::rootCost, &S::numericalFailures,
          &S::basisWarmStarts, &S::strongBranchProbes, &S::sepaFlowSolves,
          &S::sepaCutsFound, &S::sepaNestedCuts, &S::sepaBackCuts,
          &S::sepaRounds, &S::sepaLpRowsSum, &S::cutDupRejected,
          &S::cutDominatedRejected, &S::cutDominatedEvicted, &S::cutsRetired,
          &S::shareCutsReceived, &S::shareCutsAdmitted, &S::shareCutsInvalid,
          &S::shareCutsDecodeFailures, &S::redcostCalls,
          &S::redcostTightenings, &S::redcostFixings, &S::redpropRuns,
          &S::redpropArcsFixed, &S::redpropDaWarmStarts, &S::redpropLbSkips,
          &S::redpropDaCutsFed})
        f(sum, Kind::Sum);
    f(&S::sepaSeconds, Kind::Sum);
    f(&S::cutPoolSize, Kind::Max);  // a gauge: the largest reported size
    f(&S::maxDepth, Kind::Max);
    f(&S::sepaMaxNestedDepth, Kind::Max);
}

/// Visit every counter of `s` (a Stats or a type derived from it, const or
/// not) as f(field, kind).
template <class S, class F>
void forEachCounter(S& s, F&& f) {
    forEachCounterMember([&](auto member, Kind kind) { f(s.*member, kind); });
}

inline Stats& Stats::operator+=(const Stats& o) {
    forEachCounterMember([&](auto member, Kind kind) {
        auto& mine = this->*member;
        mine = kind == Kind::Max ? std::max(mine, o.*member)
                                 : mine + o.*member;
    });
    return *this;
}

}  // namespace cip
