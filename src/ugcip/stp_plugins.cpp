#include "ugcip/stp_plugins.hpp"

#include <cmath>

#include "steiner/plugins.hpp"
#include "ugcip/ugcip.hpp"

namespace ugcip {

void SteinerUserPlugins::installPlugins(cip::Solver& solver) {
    using namespace steiner;
    auto conshdlr = std::make_unique<StpConshdlr>(inst_);
    StpConshdlr* conshdlrPtr = conshdlr.get();
    solver.addConstraintHandler(std::move(conshdlr));
    solver.addBranchrule(std::make_unique<StpVertexBranching>(inst_));
    solver.addHeuristic(std::make_unique<StpHeuristic>(inst_));
    solver.addPresolver(std::make_unique<StpSubproblemReducer>(inst_));
    solver.addPropagator(
        std::make_unique<StpReductionPropagator>(inst_, conshdlrPtr));
    solver.params().setBool("heuristics/diving/enabled", false);
    solver.params().setInt("separating/maxrounds", 3);
    solver.params().setInt("separating/maxpoolsize", 250);
    bool integral = std::fabs(inst_.fixedCost - std::round(inst_.fixedCost)) <
                    1e-9;
    for (int e = 0; e < inst_.graph.numEdges() && integral; ++e) {
        if (inst_.graph.edge(e).deleted) continue;
        integral = std::fabs(inst_.graph.edge(e).cost -
                             std::round(inst_.graph.edge(e).cost)) < 1e-9;
    }
    if (integral) solver.params().setBool("misc/objintegral", true);
}

ug::CutBundle SteinerUserPlugins::collectShareableCuts(cip::Solver& solver,
                                                       int maxCuts) {
    auto* ch = dynamic_cast<steiner::StpConshdlr*>(
        solver.findConstraintHandler(steiner::kStpPluginName));
    if (!ch) return {};
    return ch->takeShareableCuts(maxCuts);
}

void SteinerUserPlugins::primeSharedCuts(cip::Solver& solver,
                                         const ug::CutBundle& cuts) {
    if (cuts.empty()) return;
    auto* ch = dynamic_cast<steiner::StpConshdlr*>(
        solver.findConstraintHandler(steiner::kStpPluginName));
    if (ch) ch->primeSharedCuts(solver, cuts);
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
