// ug[CIP-SDP, *] — the glue parallelizing the MISDP solver. Mirrors
// ug_scip_applications/MISDP/src/misdp_plugins.cpp (106 LoC in the paper).
// Racing ramp-up makes the parallel solver a *hybrid*: half of the racing
// settings are SDP-based (nonlinear B&B), half LP-based (eigenvector cuts),
// so the winner decides the relaxation dynamically per instance (paper
// section 3.2; Figure 1 reports which settings win).
#pragma once

#include "misdp/solver.hpp"
#include "ug/config.hpp"
#include "ugcip/userplugins.hpp"

namespace ugcip {

class MisdpUserPlugins : public CipUserPlugins {
public:
    explicit MisdpUserPlugins(const misdp::MisdpProblem& prob)
        : prob_(prob) {}
    void installPlugins(cip::Solver& solver) override;
    std::vector<cip::ParamSet> racingSettings(int count) override;

private:
    const misdp::MisdpProblem& prob_;
};

/// Solve an MISDP with ug[CIP-SDP, *]; `simulated` selects the DES engine.
ug::UgResult solveMisdpParallel(const misdp::MisdpProblem& prob,
                                ug::UgConfig cfg, bool simulated);

/// Interpret a UG result in max-sense MISDP terms (stats: the workers'
/// cip::Stats summed over the run).
misdp::MisdpResult toMisdpResult(const ug::UgResult& res);

}  // namespace ugcip
