// Message types of the Supervisor-Worker protocol (Algorithms 1 & 2 of the
// paper). Everything transferred between ranks is plain value data — the
// "solver independent form" UG requires so subproblems and solutions can
// cross process boundaries.
#pragma once

#include <cstdint>
#include <string>

#include "cip/model.hpp"
#include "cip/node.hpp"
#include "cip/params.hpp"
#include "cip/stats.hpp"
#include "ug/cutbundle.hpp"

namespace ug {

enum class Tag {
    // Supervisor -> Worker
    Subproblem,       ///< assignment of a subproblem (desc + incumbent)
    RacingSubproblem, ///< racing ramp-up: root + per-solver settings
    RacingStop,       ///< racing resolved; loser must stop
    CollectAll,       ///< racing winner: hand over all open nodes
    StartCollecting,  ///< enter collect mode (Algorithm 1)
    StopCollecting,   ///< leave collect mode
    SolutionPush,     ///< broadcast of a new incumbent
    Termination,      ///< global shutdown
    Interrupt,        ///< stop current subproblem, report open nodes

    // Worker -> Supervisor
    SolutionFound,    ///< new incumbent discovered
    Status,           ///< periodic bound / open-node report; doubles as the
                      ///< liveness heartbeat (any worker message refreshes
                      ///< the LoadCoordinator's failure detector, Status is
                      ///< simply the one guaranteed to flow periodically)
    NodeTransfer,     ///< one extracted open subproblem (collect mode)
    Terminated,       ///< current subproblem finished (or racing stopped)
    RacingFinished,   ///< racing solver solved the instance outright
};

const char* toString(Tag t);

/// Per-solver effort counters, reported with Status, Terminated and
/// RacingFinished: the base solver's whole cip::Stats record, cumulative over
/// its current subproblem. They quantify how *hard* the solver's nodes are —
/// a frontier whose nodes each burn thousands of simplex iterations is
/// heavier than one with the same node count and trivial LPs — and the
/// LoadCoordinator weighs its racing-winner pick and collect-mode targeting
/// by them, and sums terminal reports into UgStats.
using LpEffort = cip::Stats;

/// One message. Fields are used depending on the tag; unused fields stay at
/// their defaults. Copy semantics everywhere: a sent message shares no state
/// with the sender (the MPI discipline, enforced in shared memory too).
struct Message {
    Tag tag = Tag::Status;
    int src = -1;

    cip::SubproblemDesc desc;  ///< Subproblem / NodeTransfer / RacingSubproblem
    cip::Solution sol;         ///< SolutionFound / SolutionPush / Subproblem /
                               ///< Terminated (the worker's best known
                               ///< incumbent rides along so a lost
                               ///< SolutionFound cannot lose the optimum)
    double dualBound = -cip::kInf;   ///< Status / Terminated
    std::int64_t openNodes = 0;      ///< Status
    std::int64_t nodesProcessed = 0; ///< Status / Terminated
    std::int64_t busyCost = 0;       ///< Status / Terminated: work units spent
    std::int64_t workDone = 0;       ///< Status: monotone progress watermark
                                     ///< (LP iterations + nodes processed);
                                     ///< the stall detector compares
                                     ///< successive values, so any strictly
                                     ///< increasing measure of useful work
                                     ///< qualifies
    LpEffort lpEffort;               ///< Status / Terminated / RacingFinished
    int settingId = -1;              ///< racing setting index
    bool completed = true;           ///< Terminated: subproblem fully solved
    int collectKeep = 1;             ///< StartCollecting: minimum open nodes
                                     ///< the supplier must keep for itself
                                     ///< (0: may ship its last open node)
    cip::ParamSet params;            ///< RacingSubproblem settings
    CutBundle cuts;                  ///< piggybacked shared-cut supports:
                                     ///< worker->LC on Status / Terminated /
                                     ///< RacingFinished (newly admitted pool
                                     ///< cuts, bounded by kShareMaxCuts);
                                     ///< LC->worker on Subproblem /
                                     ///< RacingSubproblem (relevance-filtered
                                     ///< priming bundle from the global pool)
    std::string text;                ///< diagnostics
};

}  // namespace ug
