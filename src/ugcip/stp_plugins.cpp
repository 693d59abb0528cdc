#include "ugcip/stp_plugins.hpp"

#include "steiner/plugins.hpp"
#include "ugcip/ugcip.hpp"

namespace ugcip {

void SteinerUserPlugins::installPlugins(cip::Solver& solver) {
    // Every transferred subproblem root has depth 0: give it the in-tree
    // budget (2 x separating/maxrounds), not the sequential root's 20.
    if (!solver.params().has("separating/maxroundsroot"))
        solver.params().setInt("separating/maxroundsroot", 6);
    if (inst_.integralCosts())
        solver.params().setBool("misc/objintegral", true);
    steiner::installStpPlugins(solver, inst_);
}

ug::CutBundle SteinerUserPlugins::collectShareableCuts(cip::Solver& solver,
                                                       int maxCuts) {
    auto* ch = steiner::findStpConshdlr(solver);
    return ch ? ch->takeShareableCuts(maxCuts) : ug::CutBundle{};
}

void SteinerUserPlugins::primeSharedCuts(cip::Solver& solver,
                                         const ug::CutBundle& cuts) {
    if (auto* ch = steiner::findStpConshdlr(solver))
        ch->primeSharedCuts(solver, cuts);
}

std::vector<cip::ParamSet> SteinerUserPlugins::racingSettings(int count) {
    // Customized racing for the STP: vary node selection, vertex- vs
    // arc-branching, layered-presolve aggressiveness and the permutation
    // seed — the knobs that actually diversify Steiner search trees.
    static const char* nodesels[] = {"bestbound", "dfs"};
    std::vector<cip::ParamSet> out;
    out.reserve(count);
    for (int i = 0; i < count; ++i) {
        cip::ParamSet p;
        p.setString("nodeselection", nodesels[i % 2]);
        p.setBool("stp/vertexbranching", (i / 2) % 2 == 0);
        p.setBool("stp/extended", (i / 4) % 2 == 0);
        p.setInt("randomization/permutationseed", 271 + i);
        out.push_back(std::move(p));
    }
    return out;
}

ug::UgResult solveSteinerParallel(const steiner::SapInstance& inst,
                                  ug::UgConfig cfg, bool simulated) {
    SteinerUserPlugins plugins(inst);
    auto modelSupplier = [&inst] { return inst.model; };
    return simulated
               ? solveSimulated(modelSupplier, std::move(cfg), &plugins)
               : solveWithThreads(modelSupplier, std::move(cfg), &plugins);
}

steiner::SteinerResult toSteinerResult(const steiner::SteinerSolver& solver,
                                       const ug::UgResult& res) {
    cip::Status st = cip::Status::Unsolved;
    switch (res.status) {
        case ug::UgStatus::Optimal: st = cip::Status::Optimal; break;
        case ug::UgStatus::Infeasible: st = cip::Status::Infeasible; break;
        case ug::UgStatus::TimeLimit: st = cip::Status::Interrupted; break;
        case ug::UgStatus::Failed: st = cip::Status::Unsolved; break;
    }
    return solver.makeResult(st, res.best, res.dualBound, res.stats);
}

}  // namespace ugcip
