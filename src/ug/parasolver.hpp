// ParaSolver: the Worker of the Supervisor-Worker scheme (Algorithm 2).
//
// Engine-agnostic: an engine delivers messages via handleMessage() and
// drives computation via work(); all outbound communication goes through
// ParaComm::send. One fresh BaseSolver instance is created per received
// subproblem, which is what re-runs presolving on each subproblem (layered
// presolving).
//
// Message handling is idempotent/defensive (see src/ug/README.md): a
// duplicated assignment while busy is ignored, racing control messages
// (RacingStop/CollectAll) only apply while actually racing, and every
// Terminated report carries the worker's best known incumbent so a lost
// SolutionFound cannot lose the optimum.
#pragma once

#include <cstdint>
#include <memory>

#include "ug/basesolver.hpp"
#include "ug/config.hpp"
#include "ug/paracomm.hpp"

namespace ug {

class ParaSolver {
public:
    ParaSolver(int rank, ParaComm& comm, BaseSolverFactory& factory,
               const UgConfig& cfg);

    void handleMessage(const Message& m);

    /// True while an unfinished subproblem is loaded.
    bool hasWork() const;

    /// One unit of work on the current subproblem; returns its cost.
    /// Sends Status / NodeTransfer / SolutionFound / Terminated as needed.
    std::int64_t work();

    bool terminated() const { return terminated_; }
    int rank() const { return rank_; }
    /// Work units spent on the *current* subproblem (reset per assignment;
    /// the coordinator accumulates the per-subproblem totals it receives).
    std::int64_t busyUnits() const { return busyUnits_; }

private:
    void startSubproblem(const Message& m, bool racing);
    void finishSubproblem(BaseStatus status);
    void sendStatus();
    void drainAllOpenNodes();

    int rank_;
    ParaComm& comm_;
    BaseSolverFactory& factory_;
    const UgConfig& cfg_;

    std::unique_ptr<BaseSolver> solver_;
    bool active_ = false;
    bool terminated_ = false;
    bool racing_ = false;
    bool collectMode_ = false;
    int collectKeep_ = 1;  ///< min open nodes kept while collecting (from
                           ///< StartCollecting; 0 = may ship the last node)
    int settingId_ = -1;
    bool shareCuts_ = true;  ///< stp/share/enable (from cfg.baseParams)
    int stepsSinceStatus_ = 0;
    double lastStatusTime_ = 0.0;  ///< engine time of the last Status sent;
                                   ///< drives the keepalive that stops a
                                   ///< deep dive between scheduled Status
                                   ///< reports from looking like a death
    std::int64_t busyUnits_ = 0;
    cip::Solution bestKnown_;  ///< latest incumbent seen (local or pushed)
};

}  // namespace ug
