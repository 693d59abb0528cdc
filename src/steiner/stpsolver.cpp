#include "steiner/stpsolver.hpp"

#include "steiner/plugins.hpp"
#include "steiner/shortest.hpp"

namespace steiner {

void SteinerSolver::presolve(bool extendedReductions) {
    if (presolved_) return;
    presolved_ = true;
    Graph reduced = original_;
    red_ = steiner::presolve(reduced, 8, extendedReductions);
    inst_ = buildSapInstance(std::move(reduced), red_);
}

SteinerResult SteinerSolver::makeResult(cip::Status status,
                                        const cip::Solution& sol,
                                        double dualBound,
                                        const cip::Stats& stats) const {
    SteinerResult res;
    res.status = status;
    res.dualBound = dualBound;
    res.reductions = red_;
    res.stats = stats;
    if (sol.valid()) {
        std::vector<int> tree = modelSolutionToTree(inst_, sol.x);
        tree = pruneTree(inst_.graph, std::move(tree));
        res.cost = inst_.fixedCost + inst_.graph.costOf(tree);
        res.originalEdges = toOriginalEdges(inst_, tree);
    }
    return res;
}

SteinerResult SteinerSolver::solve(const cip::ParamSet& params) {
    presolve();
    if (inst_.trivial()) {
        SteinerResult res;
        res.status = cip::Status::Optimal;
        res.cost = inst_.fixedCost;
        res.dualBound = inst_.fixedCost;
        res.originalEdges = inst_.fixedOriginalEdges;
        res.solvedByPresolve = true;
        res.reductions = red_;
        return res;
    }
    cip::Solver solver;
    solver.setModel(inst_.model);
    solver.params().merge(params);
    if (inst_.integralCosts())
        solver.params().setBool("misc/objintegral", true);
    installStpPlugins(solver, inst_);
    const cip::Status st = solver.solve();
    return makeResult(st, solver.incumbent(), solver.dualBound(),
                      solver.stats());
}

}  // namespace steiner
