#include "ugcip/cipbasesolver.hpp"

namespace ugcip {

CipBaseSolver::CipBaseSolver(std::function<cip::Model()> modelSupplier,
                             CipUserPlugins* plugins,
                             const cip::ParamSet& params)
    : plugins_(plugins) {
    solver_.setModel(modelSupplier());
    solver_.params().merge(params);
    if (plugins) plugins->installPlugins(solver_);
}

void CipBaseSolver::load(const cip::SubproblemDesc& desc,
                         const cip::Solution* incumbent) {
    solver_.loadSubproblem(desc);
    solver_.initSolve();  // layered presolving happens here
    if (incumbent && incumbent->valid()) solver_.injectSolution(*incumbent);
}

std::int64_t CipBaseSolver::step() { return solver_.step(); }

bool CipBaseSolver::finished() const { return solver_.finished(); }

ug::BaseStatus CipBaseSolver::status() const {
    switch (solver_.status()) {
        case cip::Status::Optimal: return ug::BaseStatus::Optimal;
        case cip::Status::Infeasible: return ug::BaseStatus::Infeasible;
        case cip::Status::Interrupted: return ug::BaseStatus::Interrupted;
        case cip::Status::Unsolved: return ug::BaseStatus::Working;
        default: return ug::BaseStatus::Failed;
    }
}

double CipBaseSolver::dualBound() const { return solver_.dualBound(); }

int CipBaseSolver::numOpenNodes() const { return solver_.numOpenNodes(); }

std::int64_t CipBaseSolver::nodesProcessed() const {
    return solver_.stats().nodesProcessed;
}

ug::LpEffort CipBaseSolver::lpEffort() const { return solver_.stats(); }

ug::CutBundle CipBaseSolver::takeShareableCuts(int maxCuts) {
    if (!plugins_) return {};
    return plugins_->collectShareableCuts(solver_, maxCuts);
}

void CipBaseSolver::primeSharedCuts(const ug::CutBundle& cuts) {
    if (plugins_) plugins_->primeSharedCuts(solver_, cuts);
}

const cip::Solution& CipBaseSolver::incumbent() const {
    return solver_.incumbent();
}

void CipBaseSolver::injectSolution(const cip::Solution& sol) {
    solver_.injectSolution(sol);
}

std::optional<cip::SubproblemDesc> CipBaseSolver::extractOpenNode() {
    return solver_.extractOpenNode();
}

void CipBaseSolver::setIncumbentCallback(
    std::function<void(const cip::Solution&)> cb) {
    solver_.setIncumbentCallback(std::move(cb));
}

}  // namespace ugcip
