// CipUserPlugins — the analogue of UG's ScipUserPlugins class.
//
// This is the single extension point a user must implement to parallelize a
// customized CIP solver: installPlugins() is invoked on every base solver
// instance each ParaSolver creates (and on the LoadCoordinator's presolve
// instance), so the customized solver's presolvers/heuristics/constraint
// handlers/branching rules are present everywhere. The paper's entire point
// is that this glue is tiny: its stp_plugins.cpp is 173 LoC and
// misdp_plugins.cpp is 106 LoC; see src/ugcip/stp_plugins.cpp and
// src/ugcip/misdp_plugins.cpp for this repository's equivalents.
#pragma once

#include "cip/solver.hpp"
#include "ug/cutbundle.hpp"

namespace ugcip {

class CipUserPlugins {
public:
    virtual ~CipUserPlugins() = default;

    /// Install the application's user plugins into a fresh solver.
    virtual void installPlugins(cip::Solver& solver) = 0;

    /// Problem-specific racing settings ("customized racing"); return an
    /// empty vector to use the generic table.
    virtual std::vector<cip::ParamSet> racingSettings(int count) {
        (void)count;
        return {};
    }

    /// Cross-solver cut sharing hooks (optional). collectShareableCuts
    /// drains up to `maxCuts` newly admitted globally valid cut supports
    /// from `solver` for piggybacking on Status/Terminated messages;
    /// primeSharedCuts offers a coordinator bundle to the solver's plugins,
    /// which must certify each support before it may become an LP row.
    /// ParaSolver calls them only while "stp/share/enable" is on.
    /// Applications without a shareable cut family keep the no-ops.
    virtual ug::CutBundle collectShareableCuts(cip::Solver& solver,
                                               int maxCuts) {
        (void)solver;
        (void)maxCuts;
        return {};
    }
    virtual void primeSharedCuts(cip::Solver& solver,
                                 const ug::CutBundle& cuts) {
        (void)solver;
        (void)cuts;
    }
};

}  // namespace ugcip
