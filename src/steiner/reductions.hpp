// Reduction techniques (presolving) for the Steiner tree problem.
//
// SCIP-Jack's three pillars are reductions, heuristics and branch-and-cut;
// this module is the first pillar. Implemented tests:
//   * degree tests (d0/d1 non-terminal, d1 terminal contraction, d2 merge),
//   * parallel-edge dominance,
//   * SD/alternative-path edge deletion (capped Dijkstra witness),
//   * bound-based arc/edge elimination from dual-ascent reduced costs and a
//     primal bound,
//   * a limited *extended* reduction test (paper section 4.1): an arc into a
//     non-terminal must be extended by an outgoing arc, so the reduced-cost
//     bound is strengthened by the cheapest extension before comparison.
// All tests preserve at least one optimal solution; contractions accumulate
// fixed cost and fixed original edges for solution reconstruction.
#pragma once

#include <vector>

#include "steiner/dualascent.hpp"
#include "steiner/graph.hpp"

namespace steiner {

struct ReductionStats {
    double fixedCost = 0.0;
    std::vector<int> fixedOriginalEdges;  ///< forced into every built solution
    long long edgesDeleted = 0;
    long long verticesRemoved = 0;
    long long extendedDeletions = 0;  ///< deletions owed to the extended test
};

/// Degree-0/1/2 tests + parallel edge dominance until fixpoint.
void degreeTests(Graph& g, ReductionStats& stats);

/// Delete the edges of dangling non-terminal chains (degree-1 peel),
/// appending each deleted edge id to `deletedOut`. Only edges are deleted:
/// vertices stay alive, so Graph::restoreEdge stays legal afterwards.
void peelDanglingChains(Graph& g, std::vector<int>& deletedOut);

/// SD-lite: delete edge (u,v) if an alternative u-v path of cost <= c(u,v)
/// exists. `scanLimit` caps Dijkstra effort per edge.
void sdTest(Graph& g, ReductionStats& stats, int scanLimit = 2000);

/// Bound-based deletion using dual-ascent reduced costs (lb + rc > ub).
/// `useExtended` additionally applies the extension-strengthened test.
/// Returns the number of edges deleted.
long long boundBasedTest(Graph& g, ReductionStats& stats, double upperBound,
                         bool useExtended);

/// Same test driven by a caller-supplied dual-ascent state (the ReduceEngine
/// passes its warm-started ascent instead of paying a cold one here). `da`
/// must be valid for g: computed on a graph whose usable edges were a
/// superset of g's and whose terminals were a subset of g's (see
/// dualAscentWarm). Arcs deleted in g are simply never queried.
long long boundBasedTestWithDa(Graph& g, ReductionStats& stats,
                               double upperBound, bool useExtended,
                               const DualAscentResult& da);

/// Full presolve loop: degree + SD + (optionally) bound-based with a TM
/// heuristic upper bound, until fixpoint or `maxRounds`.
ReductionStats presolve(Graph& g, int maxRounds = 8, bool useExtended = true);

}  // namespace steiner
