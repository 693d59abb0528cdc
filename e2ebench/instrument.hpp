// Timing decorators for the traced run, built on public API only.
//
//  * TimedPlugins is a ugcip::CipUserPlugins that installs the same plugin
//    objects the library installer would, each wrapped in a decorator that
//    keeps the inner plugin's name and priority and opens a span around
//    every callback. Parameters are copied from the library installer run on
//    a scratch cip::Solver, so no default is written twice.
//  * TimedFactory wraps ugcip::CipSolverFactory; its base solvers time
//    create/load/step/extract/share and fold the inner cip::Solver's
//    statistics into SolverCounters when they are destroyed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "misdp/problem.hpp"
#include "steiner/stpmodel.hpp"
#include "ug/basesolver.hpp"
#include "ugcip/cipbasesolver.hpp"
#include "ugcip/userplugins.hpp"

namespace e2e {

/// Solver statistics summed over every base solver of one solve.
struct SolverCounters {
    std::int64_t nodes = 0;
    std::int64_t totalCost = 0;
    std::int64_t lpIterations = 0;
    std::int64_t lpFactorizations = 0;
    std::int64_t basisWarmStarts = 0;
    std::int64_t lpHyperSolves = 0;
    std::int64_t lpDenseSolves = 0;
    std::int64_t sepaRounds = 0;
    std::int64_t sepaLpRowsSum = 0;
    std::int64_t cutsRetired = 0;
    std::int64_t redcostFixings = 0;
    std::int64_t sepaFlowSolves = 0;
    std::int64_t sepaCutsFound = 0;
    std::int64_t poolRejected = 0;  ///< duplicate + dominated
    std::int64_t redpropArcsFixed = 0;

    void add(const cip::Stats& s);
    void add(const SolverCounters& o);
};

/// Which library installer the timed plugins mirror.
enum class Installer {
    StpSequential,  ///< steiner::installStpPlugins (SteinerSolver::solve)
    StpUg,          ///< ugcip::SteinerUserPlugins::installPlugins
    Misdp,          ///< misdp::installMisdpPlugins
};

class TimedPlugins : public ugcip::CipUserPlugins {
public:
    TimedPlugins(const steiner::SapInstance& inst, Installer which);
    explicit TimedPlugins(const misdp::MisdpProblem& prob);

    void installPlugins(cip::Solver& solver) override;
    std::vector<cip::ParamSet> racingSettings(int count) override;
    ug::CutBundle collectShareableCuts(cip::Solver& solver,
                                       int maxCuts) override;
    void primeSharedCuts(cip::Solver& solver,
                         const ug::CutBundle& cuts) override;

    /// Relaxator calls that returned Failed (all solvers, all threads).
    std::int64_t relaxFailed() const;

private:
    /// Parameters the library installer leaves on a solver whose parameters
    /// were `in` before installation (cached per distinct input).
    cip::ParamSet installerParams(const cip::ParamSet& in);

    const steiner::SapInstance* stp_ = nullptr;
    const misdp::MisdpProblem* misdp_ = nullptr;
    Installer which_;
    std::unique_ptr<ugcip::CipUserPlugins> library_;  ///< racing settings
    std::atomic<std::int64_t> relaxFailed_{0};
    std::mutex cacheMutex_;  ///< guards cache_ (engine threads install)
    std::vector<std::pair<cip::ParamSet, cip::ParamSet>> cache_;
};

class TimedFactory : public ug::BaseSolverFactory {
public:
    explicit TimedFactory(ugcip::CipSolverFactory& inner) : inner_(inner) {}
    std::unique_ptr<ug::BaseSolver> create(
        const cip::ParamSet& params) override;

    /// Counters folded from every base solver destroyed so far.
    SolverCounters counters();

private:
    friend class TimedBaseSolver;
    void fold(const cip::Stats& s);

    ugcip::CipSolverFactory& inner_;
    std::mutex mutex_;  ///< guards counters_
    SolverCounters counters_;
};

}  // namespace e2e
