// LoadCoordinator: the Supervisor of the Supervisor-Worker scheme
// (Algorithm 1 of the paper).
//
// Responsibilities reproduced from UG: ramp-up (normal and racing), the
// dynamic load-balancing collect-mode protocol, incumbent broadcasting,
// termination detection, and checkpointing of primitive nodes (only the
// subtree roots it owns — pool nodes plus currently assigned subproblem
// roots — are saved, matching the paper's restart semantics where run 1
// ends with 271,781 open nodes but run 2 restarts from just 18).
//
// Fault tolerance (src/ug/README.md documents the protocol invariants): a
// heartbeat failure detector declares a silent active rank dead after
// cfg.heartbeatTimeout, requeues its assigned root into the pool — the
// generalization of the "unexpected incomplete termination" path — and
// excludes the rank from future scheduling; message handling is defensive,
// so duplicated or stale traffic (a second Terminated from the same rank, a
// NodeTransfer from a rank already declared dead) cannot corrupt the active
// count, the statistics, or the done-detection invariant.
#pragma once

#include <optional>
#include <vector>

#include "ug/checkpoint.hpp"
#include "ug/config.hpp"
#include "ug/globalcutpool.hpp"
#include "ug/paracomm.hpp"

namespace ug {

class LoadCoordinator {
public:
    LoadCoordinator(ParaComm& comm, const UgConfig& cfg);

    /// Kick off ramp-up (or restart from a checkpoint file).
    void start(const cip::SubproblemDesc& root);

    void handleMessage(const Message& m);

    /// Periodic duties: racing deadline, checkpoints, time limit. Engines
    /// call this regularly with the current engine time.
    void onTimer(double now);

    bool done() const { return done_; }

    /// Assemble the final result; `endTime` is the engine's elapsed time.
    UgResult result(double endTime) const;

    const UgStats& stats() const { return stats_; }
    double globalDualBound() const;
    const cip::Solution& bestSolution() const { return best_; }

    /// Force checkpoint + global termination (external stop).
    void forceStop();

private:
    struct SolverInfo {
        bool active = false;
        bool collecting = false;
        bool dead = false;  ///< declared failed; excluded from scheduling
        double dualBound = -cip::kInf;
        double lastHeard = 0.0;  ///< engine time of the last message from it
        long long openNodes = 0;
        long long nodesProcessed = 0;  ///< last reported (running subproblem)
        long long busyUnits = 0;
        LpEffort lpEffort;  ///< last reported (running subproblem; all
                            ///< zero from its end to the next Status)
        int settingId = -1;
        std::optional<cip::SubproblemDesc> assigned;  ///< for checkpointing

        // Shared-cut telemetry for adaptive priming-batch sizing: EWMA of
        // the rank's observed admit rate (admitted/received at its local
        // certification gate), fed by the deltas between its reports.
        double admitEwma = 0.5;  ///< neutral prior until telemetry arrives

        // Stall detection (progress watermarks): the highest workDone the
        // rank has reported for its current subproblem and when it last
        // advanced. A rank that keeps sending Status but never moves the
        // watermark past cfg.stallTimeout is *stalled*, not dead.
        std::int64_t lastProgress = 0;
        double lastProgressTime = 0.0;
        bool stallInterrupted = false;  ///< soft Interrupt sent; waiting for
                                        ///< the Terminated report (escalates
                                        ///< to dead after another timeout)

        // Cut-sharing quarantine: consecutive corrupt bundles on this rank's
        // link, and the exponential-backoff suspension window.
        int decodeFailStreak = 0;
        int quarantineLevel = 0;      ///< backoff exponent (offense count)
        double quarantineUntil = 0.0; ///< sharing suspended before this time
    };

    void assignNodes();
    void updateCollectMode();
    void pickRacingWinner();
    /// Effort-weighted frontier size of a solver: open nodes scaled by the
    /// average simplex iterations its nodes cost so far. The unit of "load"
    /// used to pick racing winners and collect-mode suppliers.
    double frontierWeight(const SolverInfo& si) const;
    /// A rank's subproblem ended (Terminated, RacingFinished or declared
    /// dead): add its final report to the run statistics and clear the
    /// rank's running-subproblem counters.
    void foldReport(SolverInfo& si, std::int64_t nodesProcessed,
                    std::int64_t busyCost, const LpEffort& report);
    /// Adopt `sol` if it improves the incumbent: prune the pool against the
    /// new cutoff and broadcast. Returns true if adopted. `source` and
    /// `settingId` record the incumbent's provenance for checkpointing.
    bool adoptSolution(const cip::Solution& sol, int source = -1,
                       int settingId = -1);
    void broadcastSolution();
    /// Racing epilogue shared by Terminated handling and failure detection:
    /// once the last racer is gone, leave the racing phase and fall back to
    /// the root if the winner delivered nothing.
    void maybeFinishRacing();
    /// Failure detector: declare silent-but-active ranks dead (requeue their
    /// assigned roots, exclude them from all future scheduling), and soft-
    /// interrupt chatty-but-stalled ranks so their roots retry under the
    /// fallback parameter profile.
    void checkHeartbeats(double now);
    /// Declare rank `r` dead and requeue its root; shared by the silence and
    /// stall-escalation paths.
    void declareDead(int r, double now, const char* why);
    /// Record one corrupt-bundle event on a rank's link; trips the
    /// exponential-backoff sharing quarantine after a configured streak.
    void noteDecodeFailure(SolverInfo& si, double now);
    /// Merge a worker-reported cut bundle into the global pool (no-op when
    /// sharing is disabled or the bundle is empty).
    void mergeSharedCuts(const Message& m);
    /// Attach the relevance-filtered priming bundle to an assignment.
    void attachSharedCuts(Message& m, int receiver);
    /// Fold a worker report's shared-cut counters into the rank's admit-rate
    /// EWMA and quarantine streak (deltas against the previous report of the
    /// same subproblem).
    void observeShareTelemetry(SolverInfo& si, const LpEffort& e);
    /// Per-receiver priming batch bound: kShareMaxCuts scaled by the
    /// receiver's admit-rate EWMA, clamped to [8, 128].
    int primingBatchFor(int receiver) const;
    void checkDone();
    void terminateAll();
    void saveCheckpoint();
    bool loadCheckpoint();
    int activeCount() const;
    int aliveCount() const;  ///< ranks not declared dead
    void noteActivity();

    ParaComm& comm_;
    UgConfig cfg_;

    std::vector<cip::SubproblemDesc> pool_;
    GlobalCutPool cutPool_;  ///< cross-solver shared cut supports (512 slots)
    bool shareCuts_ = true;  ///< stp/share/enable (from cfg.baseParams)
    std::vector<SolverInfo> info_;  ///< index 1..numSolvers (0 unused)
    cip::Solution best_;
    double cutoff_;  ///< objective of best_, or +inf
    int bestSource_ = -1;   ///< rank that reported best_ (-1: unknown)
    int bestSetting_ = -1;  ///< racing setting best_ was found under

    /// Fallback profile attached when redispatching a stalled root
    /// (lp/pricing=devex, stp/redprop/freq=0).
    cip::ParamSet stallParams_;
    /// Torn-write fault injection on checkpoint saves (faults.tornWriteProb).
    std::optional<TornWriter> tornWriter_;

    cip::SubproblemDesc rootDesc_;
    bool racingPhase_ = false;
    bool racingWinnerPicked_ = false;
    double racingStart_ = 0.0;
    bool instanceSolvedInRacing_ = false;
    bool stopping_ = false;  ///< forceStop in progress
    bool done_ = false;
    UgStatus finalStatus_ = UgStatus::Failed;

    double nextCheckpoint_ = 0.0;
    double nextLog_ = 0.0;
    UgStats stats_;
    mutable double finalDualBound_ = -cip::kInf;
};

}  // namespace ug
