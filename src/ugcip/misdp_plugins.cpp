#include "ugcip/misdp_plugins.hpp"

#include "misdp/plugins.hpp"
#include "ugcip/ugcip.hpp"

namespace ugcip {

void MisdpUserPlugins::installPlugins(cip::Solver& solver) {
    misdp::installMisdpPlugins(solver, prob_);
}

std::vector<cip::ParamSet> MisdpUserPlugins::racingSettings(int count) {
    // Display convention follows the paper's Figure 1: 1-based setting ids,
    // odd = SDP-based relaxation, even = LP-based eigenvector cuts. Our
    // 0-based index i maps to setting id i+1, so i % 2 == 0 is SDP.
    std::vector<cip::ParamSet> out;
    out.reserve(count);
    static const char* emphases[] = {"default", "easycip", "aggressive",
                                     "fast"};
    for (int i = 0; i < count; ++i) {
        const bool sdpBased = (i % 2 == 0);
        cip::ParamSet p =
            cip::ParamSet::emphasis(emphases[(i / 2) % 4]);
        p.setString("misdp/solvemode", sdpBased ? "sdp" : "lp");
        p.setInt("randomization/permutationseed", 512 + i);
        p.setInt("misdp/roundingtrials", 4 + (i % 3) * 4);
        out.push_back(std::move(p));
    }
    return out;
}

ug::UgResult solveMisdpParallel(const misdp::MisdpProblem& prob,
                                ug::UgConfig cfg, bool simulated) {
    MisdpUserPlugins plugins(prob);
    misdp::MisdpSolver base(prob);
    auto modelSupplier = [model = base.buildModel()] { return model; };
    return simulated
               ? solveSimulated(modelSupplier, std::move(cfg), &plugins)
               : solveWithThreads(modelSupplier, std::move(cfg), &plugins);
}

misdp::MisdpResult toMisdpResult(const ug::UgResult& res) {
    misdp::MisdpResult out;
    switch (res.status) {
        case ug::UgStatus::Optimal: out.status = cip::Status::Optimal; break;
        case ug::UgStatus::Infeasible:
            out.status = cip::Status::Infeasible;
            break;
        default: out.status = cip::Status::Interrupted; break;
    }
    out.dualBound = -res.dualBound;
    if (res.best.valid()) {
        out.objective = -res.best.obj;
        out.y = res.best.x;
    }
    out.stats = res.stats;
    return out;
}

}  // namespace ugcip
