// Run configuration and aggregate statistics of a UG run.
#pragma once

#include <string>
#include <vector>

#include "cip/model.hpp"
#include "cip/params.hpp"
#include "cip/stats.hpp"

namespace ug {

enum class RampUp { Normal, Racing };

/// Fault-injection plan executed by FaultyComm (see faultycomm.hpp). All
/// randomness comes from `seed`, so a given plan replays identically on the
/// deterministic SimEngine. Message drops model lost traffic from a failing
/// process; kill/hang model the process failure itself. Tag::Termination is
/// always delivered (shutdown is assumed reliable) and Tag::NodeTransfer is
/// never dropped or delayed (losing or reordering a transferred node past
/// its sender's Terminated report would silently lose coverage; a *killed*
/// rank's in-flight transfers are safe because its whole root is requeued).
struct FaultPlan {
    unsigned seed = 20190814u;  ///< RNG seed (reproducibility)

    double dropProb = 0.0;       ///< per-message drop probability
    double delayProb = 0.0;      ///< per-message extra-latency probability
    double delaySeconds = 0.01;  ///< extra latency applied to delayed messages
    double duplicateProb = 0.0;  ///< per-message duplication probability
    double reorderProb = 0.0;    ///< probability of an overtaking-window hold
    double reorderWindow = 0.005;///< latency that lets later messages overtake

    /// Per-message payload bit-flip probability: one random bit of the
    /// message's shared-cut blob is flipped in transit (only messages
    /// carrying a cut bundle are eligible — the cuts channel is the one
    /// defended by checksums/certification, and corrupting node or solution
    /// payloads would violate the optimum invariant every fault test pins).
    double corruptProb = 0.0;

    /// Per-checkpoint-save torn-write probability: the image is truncated at
    /// a random byte offset before it replaces its slot (see TornWriter in
    /// checkpoint.hpp). Exercises the A/B fallback path.
    double tornWriteProb = 0.0;

    int killRank = -1;             ///< solver rank to fail (-1: none)
    long long killAfterSends = 0;  ///< outbound messages before the failure
    bool hang = false;  ///< hang (keeps computing/receiving, stops sending)
                        ///< instead of crash (all traffic stops)

    /// Whether any fault is configured (engines wrap their comm iff so).
    /// tornWriteProb is excluded: it is consumed by the LoadCoordinator's
    /// checkpoint writer, not the message layer.
    bool active() const {
        return dropProb > 0 || delayProb > 0 || duplicateProb > 0 ||
               reorderProb > 0 || corruptProb > 0 || killRank >= 0;
    }
};

struct UgConfig {
    int numSolvers = 4;
    RampUp rampUp = RampUp::Normal;

    /// Racing ramp-up settings table; solver i gets settings[i % size].
    /// The MISDP glue fills this with alternating SDP/LP settings (paper
    /// section 3.2); empty means "derive a generic diverse table".
    std::vector<cip::ParamSet> racingSettings;
    double racingTimeLimit = 5.0;    ///< engine seconds before winner pick
    int racingOpenNodesLimit = 50;   ///< ...or when the best racer has this many

    /// Parameters applied to every base solver (instance defaults).
    cip::ParamSet baseParams;

    /// Optional warm-start incumbent (e.g. the best known solution of an
    /// open instance, as in the paper's hc10p runs): used for presolving,
    /// propagation and heuristics from the very first node.
    cip::Solution initialSolution;

    int statusIntervalSteps = 1;   ///< worker status report frequency (steps)

    /// SimEngine only: virtual seconds per base-solver work unit.
    double costUnitSeconds = 1e-4;

    /// Periodic coordinator status lines (engine seconds; 0 = quiet), in the
    /// style of UG's solving-status output.
    double logInterval = 0.0;

    double timeLimit = 1e18;        ///< engine seconds; triggers checkpoint+stop
    std::string checkpointFile;     ///< path for checkpoint save (empty: off)
    double checkpointInterval = 0;  ///< engine seconds between saves (0: only on stop)
    bool restartFromCheckpoint = false;

    /// Liveness: a solver that is marked active but has sent nothing (its
    /// liveness piggybacks on Tag::Status) for this many engine seconds is
    /// declared dead — its assigned root is requeued into the pool and the
    /// rank is excluded from all future scheduling decisions. 0 disables
    /// failure detection (the seed behaviour). Must comfortably exceed the
    /// worst-case base-solver step time plus message latency, or slow-but-
    /// alive solvers get declared dead (correct but wasteful).
    double heartbeatTimeout = 0.0;

    /// Stall detection: an active rank that keeps sending Status reports but
    /// whose monotone work counter (Message::workDone — LP iterations plus
    /// nodes processed) has not advanced for this many engine seconds is
    /// *stalled* (as opposed to *dead* = silent): it gets a soft Interrupt,
    /// its root is requeued with a bumped retry level, and the redispatch
    /// attaches a fallback profile (lp/pricing=devex, stp/redprop/freq=0)
    /// so the retry runs a different configuration. A rank that stays
    /// active for another stallTimeout after the Interrupt (the Interrupt or
    /// its Terminated reply was lost) escalates to dead. 0 disables stall
    /// detection.
    double stallTimeout = 0.0;

    /// Cut-sharing quarantine: after this many *consecutive* corrupt (decode-
    /// failing) bundles involving one rank, sharing with that rank is
    /// suspended for `shareQuarantineBackoff * 2^level` engine seconds, with
    /// the level growing on every repeat offense (exponential backoff).
    int shareQuarantineStreak = 3;
    double shareQuarantineBackoff = 0.25;

    /// Fault injection (off by default); see FaultPlan. dropProb > 0 needs
    /// heartbeatTimeout > 0 for guaranteed termination, since a dropped
    /// assignment or Terminated report is only recovered via the failure
    /// detector.
    FaultPlan faults;
};

/// Shared-cut supports a worker piggybacks on one report, and the base of
/// the coordinator's adaptive priming batch (scaled by the receiver's admit
/// rate).
inline constexpr int kShareMaxCuts = 32;

/// Run statistics: the workers' counters summed over their terminal reports
/// (the inherited cip::Stats fields, combined by cip::Stats::operator+=; the
/// last Status of ranks the failure detector wrote off counts too), plus the
/// coordinator's own fields below.
struct UgStats : cip::Stats {
    long long transferredNodes = 0;   ///< subproblems assigned to ParaSolvers
    long long collectedNodes = 0;     ///< open nodes pulled back (collect mode)
    long long totalNodesProcessed = 0;///< B&B nodes generated across all solvers
    long long solutionsReceived = 0;  ///< SolutionFound reports received
    int maxActiveSolvers = 0;
    double firstMaxActiveTime = 0.0;  ///< engine time the max was first reached
    double rampUpTime = -1.0;         ///< first time all solvers were active
    int racingWinnerSetting = -1;
    long long busyUnits = 0;          ///< total busy work units across solvers

    // Cross-solver cut sharing, LC-side global pool flow: reported supports
    // in, admitted after dominance merge, attached to assignments out. The
    // receiver-side outcomes are the inherited shareCuts* counters; the
    // coordinator adds its own decode failures to shareCutsDecodeFailures.
    long long shareCutsReported = 0;  ///< supports piggybacked to the LC
    long long shareCutsPooled = 0;    ///< admitted into the LC global pool
    long long shareCutsSent = 0;      ///< supports attached to assignments
    long long shareCutsQuarantined = 0;     ///< supports dropped while a
                                            ///< rank's sharing was suspended
    double idleRatio = 0.0;           ///< filled in by the engine at the end
    long long openNodesAtEnd = 0;     ///< pool + in-tree nodes on termination
    long long initialOpenNodes = 0;   ///< pool size after a checkpoint restart

    // Fault tolerance.
    long long requeuedNodes = 0;   ///< roots requeued after a solver failure
    int deadSolvers = 0;           ///< ranks declared dead by the heartbeat
    long long stallInterrupts = 0; ///< soft interrupts sent to stalled ranks
    long long ignoredMessages = 0; ///< stale/duplicate messages discarded

    // Fault injection (filled from FaultyComm when a plan is active).
    long long msgsDropped = 0;
    long long msgsDelayed = 0;
    long long msgsDuplicated = 0;
    long long msgsReordered = 0;
    long long msgsSwallowedDead = 0;  ///< traffic from/to a killed rank
    long long msgsCorrupted = 0;      ///< payload bit-flips injected

    // Checkpointing / recovery.
    long long checkpointSaves = 0;        ///< images written (incl. torn)
    long long checkpointTornWrites = 0;   ///< injected short writes
    long long checkpointLoadFailures = 0; ///< restart loads that failed
    long long checkpointRestarts = 0;     ///< successful checkpoint restores
};

/// The coordinator's own UgStats fields, as f(field), in checkpoint order
/// (the inherited worker counters are listed by cip::forEachCounter).
template <class S, class F>
void forEachCoordinatorField(S& s, F&& f) {
    using U = UgStats;
    for (long long U::*m :
         {&U::transferredNodes, &U::collectedNodes, &U::totalNodesProcessed,
          &U::solutionsReceived, &U::busyUnits, &U::shareCutsReported,
          &U::shareCutsPooled, &U::shareCutsSent, &U::shareCutsQuarantined,
          &U::openNodesAtEnd, &U::initialOpenNodes, &U::requeuedNodes,
          &U::stallInterrupts, &U::ignoredMessages, &U::msgsDropped,
          &U::msgsDelayed, &U::msgsDuplicated, &U::msgsReordered,
          &U::msgsSwallowedDead, &U::msgsCorrupted, &U::checkpointSaves,
          &U::checkpointTornWrites, &U::checkpointLoadFailures,
          &U::checkpointRestarts})
        f(s.*m);
    for (int U::*m :
         {&U::maxActiveSolvers, &U::racingWinnerSetting, &U::deadSolvers})
        f(s.*m);
    for (double U::*m :
         {&U::firstMaxActiveTime, &U::rampUpTime, &U::idleRatio})
        f(s.*m);
}

enum class UgStatus { Optimal, Infeasible, TimeLimit, Failed };

const char* toString(UgStatus s);

struct UgResult {
    UgStatus status = UgStatus::Failed;
    cip::Solution best;
    double dualBound = -cip::kInf;
    double elapsed = 0.0;  ///< engine seconds (virtual for SimEngine)
    UgStats stats;
};

}  // namespace ug
