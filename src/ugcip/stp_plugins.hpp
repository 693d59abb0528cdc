// ug[CIP-Jack, *] — the glue that turns the sequential Steiner solver into a
// parallel one. This mirrors ug_scip_applications/STP/src/stp_plugins.cpp
// from the SCIP Optimization Suite, which the paper reports at 173 lines of
// code: a list of user-plugin declarations plus racing settings.
#pragma once

#include "steiner/stpsolver.hpp"
#include "ug/config.hpp"
#include "ugcip/userplugins.hpp"

namespace ugcip {

class SteinerUserPlugins : public CipUserPlugins {
public:
    explicit SteinerUserPlugins(const steiner::SapInstance& inst)
        : inst_(inst) {}
    void installPlugins(cip::Solver& solver) override;
    std::vector<cip::ParamSet> racingSettings(int count) override;
    ug::CutBundle collectShareableCuts(cip::Solver& solver,
                                       int maxCuts) override;
    void primeSharedCuts(cip::Solver& solver,
                         const ug::CutBundle& cuts) override;

private:
    const steiner::SapInstance& inst_;
};

/// Solve a (presolved) Steiner instance with ug[CIP-Jack, *].
/// `simulated` selects the discrete-event engine (the MPI substitution);
/// otherwise real threads are used.
ug::UgResult solveSteinerParallel(const steiner::SapInstance& inst,
                                  ug::UgConfig cfg, bool simulated);

/// Convert a UG result back into Steiner terms via the owning solver; the
/// result's stats are the workers' cip::Stats summed over the run.
steiner::SteinerResult toSteinerResult(const steiner::SteinerSolver& solver,
                                       const ug::UgResult& res);

}  // namespace ugcip
