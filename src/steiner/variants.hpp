// Steiner problem variants, transformed to the Steiner arborescence problem
// (SAP) — the mechanism behind SCIP-Jack's versatility ("SCIP-Jack
// transforms all problem classes to the Steiner arborescence problem,
// sometimes with additional constraints"; it handled 10+ variants at the
// DIMACS Challenge). Implemented here:
//
//   * RPCSTP — rooted prize-collecting Steiner tree: pay edge costs, forfeit
//     the prize of every uncollected vertex. Transformation: per prized
//     vertex v a gadget terminal t_v with arcs v->t_v (cost 0) and
//     root->t_v (cost p_v); the reverse arcs are fixed to zero.
//   * NWSTP — node-weighted Steiner tree: entering vertex v costs an extra
//     w_v. Transformation: asymmetric arc costs c(u,v) + w_v.
//   * DCSTP — degree-constrained Steiner tree: per-vertex degree bounds as
//     additional linear rows on the SAP model.
//   * GSTP — group Steiner tree: connect at least one vertex of every
//     group. Transformation: a gadget terminal per group, linked to the
//     group members by zero-cost arcs (outgoing arcs fixed to zero so the
//     gadget cannot act as a shortcut).
//
// Variant instances skip the undirected reduction package (its tests assume
// plain SPG semantics); exactness comes from the branch-and-cut itself.
#pragma once

#include <vector>

#include "steiner/stpsolver.hpp"

namespace steiner {

/// Rooted prize-collecting: minimize tree cost + sum of forfeited prizes.
/// `prize[v] > 0` marks a prized vertex; `root` must be part of the tree.
struct PrizeCollectingProblem {
    Graph graph;                 ///< terminals in `graph` are ignored
    std::vector<double> prize;   ///< size numVertices
    int root = 0;
};
SapInstance buildPrizeCollectingSap(const PrizeCollectingProblem& prob);

/// Node-weighted: minimize edge costs + node weights of used vertices
/// (terminals' weights are always paid and enter the fixed offset).
struct NodeWeightedProblem {
    Graph graph;                 ///< with terminals set
    std::vector<double> nodeCost;///< size numVertices, >= 0
};
SapInstance buildNodeWeightedSap(const NodeWeightedProblem& prob);

/// Degree-constrained: a plain SPG plus degree(v) <= maxDegree[v].
struct DegreeConstrainedProblem {
    Graph graph;                 ///< with terminals set
    std::vector<int> maxDegree;  ///< size numVertices (<=0: unconstrained)
};
SapInstance buildDegreeConstrainedSap(const DegreeConstrainedProblem& prob);

/// Group Steiner: connect at least one member of every group.
struct GroupSteinerProblem {
    Graph graph;                 ///< terminals in `graph` are ignored
    std::vector<std::vector<int>> groups;
};
SapInstance buildGroupSteinerSap(const GroupSteinerProblem& prob);

/// Solve any variant instance sequentially with the standard plugin set. The
/// builders above mark their instances (SapInstance::gadgetGraph), so the
/// reduction package stays off here and in ugcip::solveSteinerParallel.
SteinerResult solveVariant(const SapInstance& inst,
                           const cip::ParamSet& params = {});

}  // namespace steiner
