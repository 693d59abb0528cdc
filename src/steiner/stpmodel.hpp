// Transformation of a (reduced) Steiner tree instance into the Steiner
// arborescence problem and its flow-balance directed-cut CIP model
// (Formulation 1 of the paper).
//
// Rows included statically: in-degree <= 1 for every vertex, in-degree == 1
// for non-root terminals, flow balance (5) for non-terminals, plus the cut
// rows raised by Wong's dual ascent (SCIP-Jack's initial LP). The
// exponential cut family (4) is separated lazily by StpConshdlr.
#pragma once

#include <vector>

#include "cip/model.hpp"
#include "steiner/graph.hpp"
#include "steiner/reductions.hpp"

namespace steiner {

struct SapInstance {
    Graph graph;  ///< the reduced undirected instance (frozen after build)
    int root = -1;
    double fixedCost = 0.0;                ///< cost fixed by presolving
    std::vector<int> fixedOriginalEdges;   ///< edges forced by presolving
    std::vector<int> arcVar;               ///< arc id (2e+dir) -> var or -1
    std::vector<int> varArc;               ///< var -> arc id
    cip::Model model;
    double dualAscentBound = 0.0;          ///< root lower bound from Wong DA
    /// Set by the variant builders (variants.hpp): a gadget graph breaks
    /// the plain-SPG assumptions of the reduction package, so the layered
    /// presolve and the reduction propagator stay off and exactness comes
    /// from branch-and-cut alone.
    bool gadgetGraph = false;

    int numArcs() const { return static_cast<int>(varArc.size()); }
    /// Trivial when <=1 terminal survived presolving.
    bool trivial() const { return graph.numTerminals() <= 1; }
    /// Every live edge cost and the presolve-fixed cost are integers, so
    /// every objective value is one (the B&B may round its dual bound).
    bool integralCosts() const;
    /// Some arc of edge e is a model variable with upper bound 1 in `ub`.
    bool edgeUsable(const std::vector<double>& ub, int e) const {
        const int v0 = arcVar[2 * static_cast<std::size_t>(e)];
        const int v1 = arcVar[2 * static_cast<std::size_t>(e) + 1];
        return (v0 >= 0 && ub[static_cast<std::size_t>(v0)] > 0.5) ||
               (v1 >= 0 && ub[static_cast<std::size_t>(v1)] > 0.5);
    }
};

/// Build the SAP model for an already reduced graph. `maxInitialCuts` caps
/// the number of dual-ascent rows copied into the static model.
SapInstance buildSapInstance(Graph reducedGraph, const ReductionStats& red,
                             int maxInitialCuts = 256);

/// Orient an undirected tree (edge ids of `inst.graph`) from the root and
/// produce the corresponding 0/1 model solution vector.
std::vector<double> treeToModelSolution(const SapInstance& inst,
                                        const std::vector<int>& treeEdges);

/// Extract the tree edge set (reduced-graph edge ids) from a model solution.
std::vector<int> modelSolutionToTree(const SapInstance& inst,
                                     const std::vector<double>& x);

/// Map a reduced-graph edge set to original-instance edge ids, including the
/// presolve-fixed edges.
std::vector<int> toOriginalEdges(const SapInstance& inst,
                                 const std::vector<int>& reducedEdges);

}  // namespace steiner
