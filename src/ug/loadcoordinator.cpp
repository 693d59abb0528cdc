#include "ug/loadcoordinator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "ug/checkpoint.hpp"

namespace ug {

namespace {
/// Desired pool size per (possibly idle) solver.
constexpr int kPoolTargetPerSolver = 1;
/// Collect-mode ramp-down: a solver sitting on exactly one open node may be
/// engaged as a supplier (and told it may ship that last node) when idle
/// solvers exist and its effort-weighted frontier — open nodes times
/// average simplex iterations per node — is at least this heavy. Below the
/// threshold single-node solvers are left alone, as shipping a cheap last
/// node just moves the work without parallelizing it.
constexpr double kCollectHeavySingleWeight = 256.0;
}  // namespace

LoadCoordinator::LoadCoordinator(ParaComm& comm, const UgConfig& cfg)
    : comm_(comm),
      cfg_(cfg),
      cutPool_(cfg.numSolvers + 1, 512),
      shareCuts_(cfg.baseParams.getBool("stp/share/enable", true)),
      cutoff_(cip::kInf) {
    info_.resize(cfg_.numSolvers + 1);
    // Fallback profile for stalled-root redispatch: a different pricing
    // rule and no reduction propagation sidestep the two subsystems most
    // likely to loop on a pathological node.
    stallParams_.setString("lp/pricing", "devex");
    stallParams_.setInt("stp/redprop/freq", 0);
    if (cfg_.faults.tornWriteProb > 0)
        tornWriter_.emplace(cfg_.faults.tornWriteProb, cfg_.faults.seed);
}

void LoadCoordinator::noteDecodeFailure(SolverInfo& si, double now) {
    if (++si.decodeFailStreak < std::max(1, cfg_.shareQuarantineStreak))
        return;
    // Streak reached: suspend sharing with this rank, doubling the window on
    // every repeat offense. A transiently corrupting link recovers after one
    // short suspension; a persistently bad one converges to effectively
    // disabled sharing instead of wasting wire and certification work
    // forever.
    si.decodeFailStreak = 0;
    const int level = std::min(si.quarantineLevel, 16);
    si.quarantineUntil =
        now + cfg_.shareQuarantineBackoff * static_cast<double>(1 << level);
    ++si.quarantineLevel;
}

void LoadCoordinator::mergeSharedCuts(const Message& m) {
    if (!shareCuts_ || m.cuts.empty()) return;
    SolverInfo& si = info_[m.src];
    const double now = comm_.now(0);
    if (now < si.quarantineUntil) {
        stats_.shareCutsQuarantined += m.cuts.count();
        return;
    }
    const GlobalCutPool::MergeStats ms = cutPool_.merge(m.cuts, m.src);
    stats_.shareCutsReported += ms.reported;
    stats_.shareCutsPooled += ms.pooled;
    if (ms.decodeFailed) {
        ++stats_.shareCutsDecodeFailures;
        noteDecodeFailure(si, now);
    } else {
        si.decodeFailStreak = 0;
    }
}

void LoadCoordinator::observeShareTelemetry(SolverInfo& si, const LpEffort& e) {
    // Counters are cumulative over the rank's current subproblem; the
    // baseline is the rank's previous report of it (si.lpEffort, all zero
    // until the first Status of a subproblem), so each report contributes
    // exactly its delta. A negative delta means the baseline is stale
    // (reordered or lost traffic) — the caller's si.lpEffort update
    // resynchronizes it without feeding the EWMA.
    const LpEffort& last = si.lpEffort;
    const std::int64_t dR = e.shareCutsReceived - last.shareCutsReceived;
    const std::int64_t dA = e.shareCutsAdmitted - last.shareCutsAdmitted;
    if (dR > 0 && dA >= 0) {
        const double rate =
            std::min(1.0, static_cast<double>(dA) / static_cast<double>(dR));
        si.admitEwma = 0.7 * si.admitEwma + 0.3 * rate;
    }

    // Worker-side decode failures implicate the same link as LC-side ones
    // (the priming direction instead of the reporting direction); each failed
    // bundle counts toward the rank's quarantine streak. They reach
    // stats_.shareCutsDecodeFailures through foldReport, not from here.
    const std::int64_t dF =
        e.shareCutsDecodeFailures - last.shareCutsDecodeFailures;
    for (std::int64_t i = 0; i < dF; ++i) noteDecodeFailure(si, comm_.now(0));
}

int LoadCoordinator::primingBatchFor(int receiver) const {
    // A rank admitting everything gets up to 2x the configured batch, one
    // rejecting everything ramps down; clamp keeps the bundle useful without
    // letting a hot streak flood the wire.
    const double scaled = 2.0 * kShareMaxCuts * info_[receiver].admitEwma;
    return std::clamp(static_cast<int>(scaled), 8, 128);
}

void LoadCoordinator::attachSharedCuts(Message& m, int receiver) {
    if (!shareCuts_) return;
    if (comm_.now(0) < info_[receiver].quarantineUntil) return;
    m.cuts = cutPool_.bundleFor(receiver, m.desc, primingBatchFor(receiver));
    stats_.shareCutsSent += m.cuts.count();
}

int LoadCoordinator::activeCount() const {
    int c = 0;
    for (int r = 1; r <= cfg_.numSolvers; ++r)
        if (info_[r].active) ++c;
    return c;
}

int LoadCoordinator::aliveCount() const {
    int c = 0;
    for (int r = 1; r <= cfg_.numSolvers; ++r)
        if (!info_[r].dead) ++c;
    return c;
}

double LoadCoordinator::frontierWeight(const SolverInfo& si) const {
    // Open nodes weighted by observed node hardness: a solver whose nodes
    // average many simplex iterations holds a heavier frontier than one with
    // the same count of cheap nodes. With no LP data yet (ramp-up, LP-free
    // base solvers) the weight degrades to the plain open-node count.
    double avgIters = 1.0;
    if (si.lpEffort.lpIterations > 0 && si.nodesProcessed > 0)
        avgIters = static_cast<double>(si.lpEffort.lpIterations) /
                   static_cast<double>(si.nodesProcessed);
    return static_cast<double>(si.openNodes) * std::max(1.0, avgIters);
}

void LoadCoordinator::foldReport(SolverInfo& si, std::int64_t nodesProcessed,
                                 std::int64_t busyCost,
                                 const LpEffort& report) {
    stats_.totalNodesProcessed += nodesProcessed;
    stats_.busyUnits += busyCost;
    stats_ += report;
    si.nodesProcessed = 0;
    si.busyUnits = 0;
    si.lpEffort = {};
}

void LoadCoordinator::noteActivity() {
    const int act = activeCount();
    const double now = comm_.now(0);
    if (act > stats_.maxActiveSolvers) {
        stats_.maxActiveSolvers = act;
        stats_.firstMaxActiveTime = now;
    }
    if (act == cfg_.numSolvers && stats_.rampUpTime < 0)
        stats_.rampUpTime = now;
}

void LoadCoordinator::start(const cip::SubproblemDesc& root) {
    rootDesc_ = root;
    if (cfg_.initialSolution.valid()) {
        best_ = cfg_.initialSolution;
        cutoff_ = best_.obj;
    }
    nextCheckpoint_ = cfg_.checkpointInterval > 0
                          ? comm_.now(0) + cfg_.checkpointInterval
                          : 0.0;
    if (cfg_.restartFromCheckpoint && loadCheckpoint()) {
        // Restart: pool already filled; ramp up by distributing saved
        // primitive nodes (racing is skipped on restarts, as in ParaSCIP).
        broadcastSolution();
        assignNodes();
        updateCollectMode();
        return;
    }

    if (cfg_.rampUp == RampUp::Racing && cfg_.numSolvers > 1 &&
        !cfg_.racingSettings.empty()) {
        racingPhase_ = true;
        racingStart_ = comm_.now(0);
        for (int r = 1; r <= cfg_.numSolvers; ++r) {
            Message m;
            m.tag = Tag::RacingSubproblem;
            m.desc = root;
            const int idx =
                (r - 1) % static_cast<int>(cfg_.racingSettings.size());
            m.params = cfg_.racingSettings[idx];
            m.settingId = idx;
            if (best_.valid()) m.sol = best_;
            attachSharedCuts(m, r);  // non-empty only on restarted pools
            info_[r].active = true;
            info_[r].settingId = idx;
            info_[r].assigned = root;
            info_[r].lastHeard = racingStart_;
            info_[r].lastProgress = 0;
            info_[r].lastProgressTime = racingStart_;
            info_[r].stallInterrupted = false;
            comm_.send(0, r, m);
        }
        noteActivity();
        return;
    }

    pool_.push_back(root);
    assignNodes();
    updateCollectMode();
}

void LoadCoordinator::assignNodes() {
    if (racingPhase_ || stopping_ || done_) return;
    while (!pool_.empty()) {
        int idleRank = -1;
        for (int r = 1; r <= cfg_.numSolvers; ++r) {
            if (!info_[r].active && !info_[r].dead) {
                idleRank = r;
                break;
            }
        }
        if (idleRank < 0) break;
        // Best node first (lowest bound).
        std::size_t pick = 0;
        for (std::size_t i = 1; i < pool_.size(); ++i)
            if (pool_[i].lowerBound < pool_[pick].lowerBound) pick = i;
        cip::SubproblemDesc desc = std::move(pool_[pick]);
        pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(pick));
        if (cutoff_ < cip::kInf && desc.lowerBound >= cutoff_ - 1e-9)
            continue;  // node already cut off by the incumbent
        Message m;
        m.tag = Tag::Subproblem;
        m.desc = desc;
        if (best_.valid()) m.sol = best_;
        // A requeued root (its first run failed or stalled) retries under the
        // fallback parameter profile — a different configuration is the best
        // bet against a deterministic stall reproducing itself.
        if (desc.retryLevel > 0) m.params = stallParams_;
        attachSharedCuts(m, idleRank);
        info_[idleRank].active = true;
        info_[idleRank].dualBound = desc.lowerBound;
        info_[idleRank].openNodes = 0;
        info_[idleRank].assigned = std::move(desc);
        info_[idleRank].lastHeard = comm_.now(0);
        info_[idleRank].lastProgress = 0;
        info_[idleRank].lastProgressTime = info_[idleRank].lastHeard;
        info_[idleRank].stallInterrupted = false;
        ++stats_.transferredNodes;
        comm_.send(0, idleRank, m);
        noteActivity();
    }
}

void LoadCoordinator::updateCollectMode() {
    if (racingPhase_ || stopping_ || done_) return;
    int idle = 0;
    for (int r = 1; r <= cfg_.numSolvers; ++r)
        if (!info_[r].active && !info_[r].dead) ++idle;
    const std::size_t target = static_cast<std::size_t>(
        std::max(1, kPoolTargetPerSolver * std::max(idle, 1)));
    const bool wantCollect =
        pool_.size() < target && (idle > 0 || pool_.size() < target / 2 + 1);

    if (wantCollect) {
        // Ask the solvers holding the heaviest frontiers to share — heaviest
        // in LP effort, not raw node count: nodes that cost many simplex
        // iterations are the ones worth spreading across ranks. Engage
        // suppliers in weight order only until their surplus (a supplier
        // normally keeps one node for itself) covers the pool deficit, so
        // cheap frontiers keep their warm-start locality.
        //
        // Ramp-down exception: with idle solvers around, a solver sitting on
        // exactly ONE open node is also a candidate when the effort-weighted
        // frontier marks that node heavy — it may ship its last node
        // (collectKeep = 0) and go idle, letting the coordinator hand the
        // heavy subtree to a rank that can split it. The old >= 2 gate made
        // such solvers permanently unable to supply, serializing the tail of
        // the search on whichever rank happened to hold the last hard node.
        std::vector<int> cands;
        for (int r = 1; r <= cfg_.numSolvers; ++r) {
            const SolverInfo& si = info_[r];
            if (!si.active || si.collecting) continue;
            const bool heavySingle =
                si.openNodes == 1 && idle > 0 &&
                frontierWeight(si) >= kCollectHeavySingleWeight;
            if (si.openNodes >= 2 || heavySingle) cands.push_back(r);
        }
        std::stable_sort(cands.begin(), cands.end(), [&](int a, int b) {
            return frontierWeight(info_[a]) > frontierWeight(info_[b]);
        });
        const long long deficit = static_cast<long long>(target) -
                                  static_cast<long long>(pool_.size());
        long long expected = 0;
        for (int r : cands) {
            const int keep = info_[r].openNodes >= 2 ? 1 : 0;
            Message m;
            m.tag = Tag::StartCollecting;
            m.collectKeep = keep;
            comm_.send(0, r, m);
            info_[r].collecting = true;
            expected += info_[r].openNodes - keep;
            if (expected >= deficit) break;
        }
    } else if (pool_.size() >= 2 * target + 2) {
        for (int r = 1; r <= cfg_.numSolvers; ++r) {
            SolverInfo& si = info_[r];
            if (si.collecting) {
                Message m;
                m.tag = Tag::StopCollecting;
                comm_.send(0, r, m);
                si.collecting = false;
            }
        }
    }
}

void LoadCoordinator::broadcastSolution() {
    if (!best_.valid()) return;
    for (int r = 1; r <= cfg_.numSolvers; ++r) {
        if (info_[r].dead) continue;
        Message m;
        m.tag = Tag::SolutionPush;
        m.sol = best_;
        comm_.send(0, r, m);
    }
}

bool LoadCoordinator::adoptSolution(const cip::Solution& sol, int source,
                                    int settingId) {
    if (!sol.valid() || (best_.valid() && sol.obj >= best_.obj - 1e-12))
        return false;
    best_ = sol;
    cutoff_ = best_.obj;
    bestSource_ = source;
    bestSetting_ = settingId;
    // Drop pool nodes that are now cut off.
    std::erase_if(pool_, [&](const cip::SubproblemDesc& d) {
        return d.lowerBound >= cutoff_ - 1e-9;
    });
    broadcastSolution();
    return true;
}

void LoadCoordinator::pickRacingWinner() {
    if (!racingPhase_ || racingWinnerPicked_) return;
    racingWinnerPicked_ = true;
    // Winner criterion (paper): combination of lower bound and open nodes.
    // Bound ties break on the LP-effort-weighted frontier (open nodes times
    // the racer's average simplex iterations per node) rather than the raw
    // count: the winner's tree is the one the whole run inherits, and hard
    // nodes are worth more kept inside a warm tree than re-derived from a
    // transferred description.
    int winner = -1;
    for (int r = 1; r <= cfg_.numSolvers; ++r) {
        const SolverInfo& si = info_[r];
        if (!si.active || si.dead) continue;
        if (winner < 0 ||
            si.dualBound > info_[winner].dualBound + 1e-12 ||
            (std::fabs(si.dualBound - info_[winner].dualBound) <= 1e-12 &&
             frontierWeight(si) > frontierWeight(info_[winner])))
            winner = r;
    }
    if (winner < 0) return;  // everyone already finished
    stats_.racingWinnerSetting = info_[winner].settingId;
    for (int r = 1; r <= cfg_.numSolvers; ++r) {
        if (!info_[r].active) continue;
        Message m;
        m.tag = (r == winner) ? Tag::CollectAll : Tag::RacingStop;
        comm_.send(0, r, m);
    }
}

void LoadCoordinator::maybeFinishRacing() {
    if (!racingPhase_ || activeCount() > 0) return;
    racingPhase_ = false;
    if (instanceSolvedInRacing_) {
        pool_.clear();
    } else if (pool_.empty()) {
        // Winner delivered no open nodes (interrupted mid-node, or it died
        // before handing its frontier over): fall back to re-exploring from
        // the root with the accumulated incumbent. Correctness over lost
        // work.
        pool_.push_back(rootDesc_);
    }
    assignNodes();
    updateCollectMode();
}

void LoadCoordinator::handleMessage(const Message& m) {
    if (done_) return;
    const int r = m.src;
    if (r < 1 || r > cfg_.numSolvers) return;
    SolverInfo& si = info_[r];

    if (si.dead) {
        // Stale traffic from a rank the failure detector already wrote off:
        // its assigned root was requeued, so everything it reports is
        // re-derived elsewhere. Solutions are still self-contained
        // certificates, though — adopt those, discard the rest.
        if (m.tag == Tag::SolutionFound) {
            ++stats_.solutionsReceived;
            adoptSolution(m.sol, r, si.settingId);
        } else {
            ++stats_.ignoredMessages;
        }
        return;
    }
    si.lastHeard = comm_.now(0);

    switch (m.tag) {
        case Tag::SolutionFound: {
            ++stats_.solutionsReceived;
            adoptSolution(m.sol, r, si.settingId);
            break;
        }
        case Tag::Status: {
            if (!si.active) {
                // Stale report delivered after the rank's Terminated was
                // processed (reordered or duplicated traffic); its counters
                // no longer describe a running subproblem.
                ++stats_.ignoredMessages;
                break;
            }
            // Progress watermark: the stall detector only trusts forward
            // motion of the monotone work counter, not the mere arrival of
            // Status traffic (a wedged solver can stay chatty).
            if (m.workDone > si.lastProgress) {
                si.lastProgress = m.workDone;
                si.lastProgressTime = si.lastHeard;
            }
            si.dualBound = std::max(si.dualBound, m.dualBound);
            si.openNodes = m.openNodes;
            si.nodesProcessed = m.nodesProcessed;
            si.busyUnits = m.busyCost;
            observeShareTelemetry(si, m.lpEffort);
            si.lpEffort = m.lpEffort;
            mergeSharedCuts(m);
            // The pool-size gauge peaks mid-subproblem, so track it from
            // Status reports too (foldReport only sees terminal reports).
            stats_.cutPoolSize =
                std::max(stats_.cutPoolSize, m.lpEffort.cutPoolSize);
            if (racingPhase_ && !racingWinnerPicked_ &&
                m.openNodes >= cfg_.racingOpenNodesLimit)
                pickRacingWinner();
            if (!racingPhase_) updateCollectMode();
            break;
        }
        case Tag::NodeTransfer: {
            // Accepted even from an inactive rank: a node sent just before
            // the sender's Terminated(completed) is the only copy of that
            // part of the search space. (Dead ranks were filtered above —
            // their coverage travels via the requeued root instead.)
            ++stats_.collectedNodes;
            // The sender's frontier just shrank by one, but its next Status
            // may be many steps away: account the ship here so
            // frontierWeight reflects the post-ship frontier. Without this,
            // collect-mode supplier targeting keeps re-selecting a solver it
            // has already drained (its stale pre-ship openNodes looks heavy)
            // while genuinely heavy frontiers sit unasked.
            if (si.active && si.openNodes > 0) --si.openNodes;
            if (!(cutoff_ < cip::kInf &&
                  m.desc.lowerBound >= cutoff_ - 1e-9))
                pool_.push_back(m.desc);
            if (!racingPhase_) {
                assignNodes();
                updateCollectMode();
            }
            break;
        }
        case Tag::RacingFinished: {
            if (!si.active || !racingPhase_) {
                // Duplicate, or a straggler arriving after racing already
                // ended; the first copy did all the work, but the attached
                // solution is still a certificate.
                ++stats_.ignoredMessages;
                adoptSolution(m.sol, r, si.settingId);
                break;
            }
            // A racer solved the instance outright during the racing stage.
            adoptSolution(m.sol, r, si.settingId);
            mergeSharedCuts(m);
            instanceSolvedInRacing_ = true;
            si.active = false;
            si.assigned.reset();
            observeShareTelemetry(si, m.lpEffort);
            foldReport(si, m.nodesProcessed, m.busyCost, m.lpEffort);
            si.dualBound = m.dualBound;
            // Stop the remaining racers.
            for (int rr = 1; rr <= cfg_.numSolvers; ++rr) {
                if (info_[rr].active) {
                    Message stop;
                    stop.tag = Tag::RacingStop;
                    comm_.send(0, rr, stop);
                }
            }
            racingWinnerPicked_ = true;
            maybeFinishRacing();
            checkDone();
            break;
        }
        case Tag::Terminated: {
            if (!si.active) {
                // A second Terminated from the same rank (duplicated
                // message, or a re-solve triggered by a duplicated
                // assignment). Folding it in again would double-count the
                // statistics and could requeue an already-covered root.
                ++stats_.ignoredMessages;
                // its incumbent is still a certificate
                adoptSolution(m.sol, r, si.settingId);
                break;
            }
            si.active = false;
            si.collecting = false;
            observeShareTelemetry(si, m.lpEffort);
            foldReport(si, m.nodesProcessed, m.busyCost, m.lpEffort);
            adoptSolution(m.sol, r, si.settingId);
            mergeSharedCuts(m);
            if (m.completed) {
                si.assigned.reset();
                if (m.dualBound > -cip::kInf)
                    si.dualBound = std::max(si.dualBound, m.dualBound);
            } else if (stopping_ || racingPhase_) {
                // Shutdown (root already checkpointed) or racing loser
                // (tree intentionally discarded; the maybeFinishRacing
                // root fallback keeps the search exhaustive).
                si.assigned.reset();
            } else {
                // Unexpected incomplete termination (solver failure or a
                // stall-detector Interrupt): the subproblem's coverage would
                // be lost — requeue its root. A stall-interrupted root gets
                // its retry level bumped so the redispatch attaches the
                // fallback parameter profile.
                if (si.assigned) {
                    cip::SubproblemDesc d = std::move(*si.assigned);
                    if (si.stallInterrupted) ++d.retryLevel;
                    pool_.push_back(std::move(d));
                    ++stats_.requeuedNodes;
                }
                si.assigned.reset();
            }
            si.stallInterrupted = false;
            si.openNodes = 0;
            if (stopping_) {
                if (activeCount() == 0) terminateAll();
                break;
            }
            if (racingPhase_) {
                maybeFinishRacing();
            } else {
                assignNodes();
                updateCollectMode();
            }
            checkDone();
            break;
        }
        default:
            ++stats_.ignoredMessages;
            break;  // supervisor->worker tags never legitimately arrive here
    }
}

void LoadCoordinator::checkDone() {
    if (done_ || stopping_) return;
    if (racingPhase_) return;
    if (!pool_.empty() || activeCount() > 0) return;
    finalStatus_ = best_.valid() ? UgStatus::Optimal : UgStatus::Infeasible;
    finalDualBound_ = best_.valid() ? best_.obj : cip::kInf;
    terminateAll();
}

void LoadCoordinator::terminateAll() {
    stats_.openNodesAtEnd = static_cast<long long>(pool_.size());
    for (int r = 1; r <= cfg_.numSolvers; ++r) {
        stats_.openNodesAtEnd += info_[r].active ? info_[r].openNodes : 0;
        Message m;
        m.tag = Tag::Termination;
        comm_.send(0, r, m);
    }
    done_ = true;
}

void LoadCoordinator::forceStop() {
    if (done_ || stopping_) return;
    stopping_ = true;
    finalStatus_ = UgStatus::TimeLimit;
    finalDualBound_ = globalDualBound();
    // Primitive nodes (pool + assigned roots) go to the checkpoint before
    // the workers' in-tree progress is discarded (UG semantics).
    if (!cfg_.checkpointFile.empty()) saveCheckpoint();
    // Drain: interrupt the active workers and wait for their Terminated
    // reports so node/busy statistics are complete; idle workers terminate
    // immediately.
    bool anyActive = false;
    for (int r = 1; r <= cfg_.numSolvers; ++r) {
        Message m;
        if (info_[r].active) {
            anyActive = true;
            m.tag = Tag::Interrupt;
        } else {
            m.tag = Tag::Termination;
        }
        comm_.send(0, r, m);
    }
    if (!anyActive) terminateAll();
}

void LoadCoordinator::declareDead(int r, double now, const char* why) {
    SolverInfo& si = info_[r];
    si.dead = true;
    si.active = false;
    si.collecting = false;
    ++stats_.deadSolvers;
    // Fold in its last reported progress — the authoritative Terminated
    // report will never come (and is ignored if it does).
    foldReport(si, si.nodesProcessed, si.busyUnits, si.lpEffort);
    si.openNodes = 0;
    if (si.assigned && !racingPhase_ && !stopping_) {
        // The requeue-on-failure invariant: the victim's primitive root
        // goes back into the pool, so its subtree is re-covered. During
        // racing every racer holds the same root (maybeFinishRacing
        // restores one copy if all racers die); during shutdown the
        // root is already in the checkpoint. A stall-escalation victim's
        // root gets a bumped retry level: it already proved pathological
        // under the current configuration.
        cip::SubproblemDesc d = std::move(*si.assigned);
        if (si.stallInterrupted) ++d.retryLevel;
        pool_.push_back(std::move(d));
        ++stats_.requeuedNodes;
    }
    si.assigned.reset();
    si.stallInterrupted = false;
    if (cfg_.logInterval > 0) {
        std::printf("[LC %8.3fs] rank %d declared dead (%s); "
                    "requeued %lld node(s)\n",
                    now, r, why, stats_.requeuedNodes);
        std::fflush(stdout);
    }
}

void LoadCoordinator::checkHeartbeats(double now) {
    if ((cfg_.heartbeatTimeout <= 0 && cfg_.stallTimeout <= 0) || done_)
        return;
    bool anyDied = false;
    for (int r = 1; r <= cfg_.numSolvers; ++r) {
        SolverInfo& si = info_[r];
        if (!si.active || si.dead) continue;

        // Dead = silent: an active rank whose traffic stopped entirely.
        if (cfg_.heartbeatTimeout > 0 &&
            now - si.lastHeard >= cfg_.heartbeatTimeout) {
            declareDead(r, now, "silent");
            anyDied = true;
            continue;
        }

        // Stalled = chatty but not advancing the progress watermark: still
        // sending Status, yet the monotone work counter has not moved for a
        // full stall window. First offense gets a soft Interrupt — the
        // solver reports Terminated(incomplete) and the Terminated handler
        // requeues its root with a bumped retry level. If the rank is still
        // active a full window later (the Interrupt or its reply was lost,
        // or the solver is too wedged to honor it), escalate to dead.
        if (cfg_.stallTimeout <= 0 ||
            now - si.lastProgressTime < cfg_.stallTimeout)
            continue;
        if (!si.stallInterrupted) {
            si.stallInterrupted = true;
            si.lastProgressTime = now;  // restart the escalation clock
            ++stats_.stallInterrupts;
            Message m;
            m.tag = Tag::Interrupt;
            comm_.send(0, r, m);
            if (cfg_.logInterval > 0) {
                std::printf("[LC %8.3fs] rank %d stalled (no progress for "
                            "%.3fs); interrupting\n",
                            now, r, cfg_.stallTimeout);
                std::fflush(stdout);
            }
        } else {
            declareDead(r, now, "stalled, unresponsive to interrupt");
            anyDied = true;
        }
    }
    if (!anyDied) return;

    if (stopping_) {
        if (activeCount() == 0) terminateAll();
        return;
    }
    if (racingPhase_) {
        maybeFinishRacing();
    } else {
        assignNodes();
        updateCollectMode();
    }
    checkDone();
    if (!done_ && aliveCount() == 0) {
        // Every solver failed with work outstanding: nobody is left to
        // process the pool, so report failure instead of spinning.
        finalStatus_ = UgStatus::Failed;
        finalDualBound_ = globalDualBound();
        terminateAll();
    }
}

void LoadCoordinator::onTimer(double now) {
    if (done_) return;
    if (cfg_.logInterval > 0 && now >= nextLog_) {
        nextLog_ = now + cfg_.logInterval;
        const double primal = best_.valid() ? best_.obj : cip::kInf;
        const double dual = globalDualBound();
        long long lpIt = stats_.lpIterations;
        for (int r = 1; r <= cfg_.numSolvers; ++r)
            if (info_[r].active) lpIt += info_[r].lpEffort.lpIterations;
        std::printf(
            "[LC %8.3fs] active %d/%d pool %zu primal %s dual %g trans %lld "
            "coll %lld lpIt %lld\n",
            now, activeCount(), cfg_.numSolvers, pool_.size(),
            primal < cip::kInf ? std::to_string(primal).c_str() : "-", dual,
            stats_.transferredNodes, stats_.collectedNodes, lpIt);
        std::fflush(stdout);
    }
    if (racingPhase_ && !racingWinnerPicked_ &&
        now - racingStart_ >= cfg_.racingTimeLimit)
        pickRacingWinner();
    checkHeartbeats(now);
    if (done_) return;  // the failure detector may have terminated the run
    if (cfg_.checkpointInterval > 0 && !cfg_.checkpointFile.empty() &&
        now >= nextCheckpoint_) {
        saveCheckpoint();
        nextCheckpoint_ = now + cfg_.checkpointInterval;
    }
    if (now >= cfg_.timeLimit) forceStop();
}

double LoadCoordinator::globalDualBound() const {
    double bound = cip::kInf;
    bool any = false;
    for (const auto& d : pool_) {
        bound = std::min(bound, d.lowerBound);
        any = true;
    }
    for (int r = 1; r <= cfg_.numSolvers; ++r) {
        if (info_[r].active) {
            bound = std::min(bound, info_[r].dualBound);
            any = true;
        }
    }
    if (!any) return best_.valid() ? best_.obj : -cip::kInf;
    return bound;
}

void LoadCoordinator::saveCheckpoint() {
    Checkpoint cp;
    cp.nodes = pool_;
    if (racingPhase_) {
        // Racing: every racer holds the *same* root as its assigned node.
        // Writing one copy per racer would make a restart distribute N
        // duplicate roots and re-solve the instance N times — save exactly
        // one, with the best dual bound any racer has proven for it (each
        // racer solves the full root problem, so each reported bound is a
        // valid bound for it). Nothing to save if a racer already solved
        // the instance outright.
        if (!instanceSolvedInRacing_) {
            cip::SubproblemDesc d = rootDesc_;
            for (int r = 1; r <= cfg_.numSolvers; ++r)
                if (info_[r].active && info_[r].dualBound > -cip::kInf)
                    d.lowerBound = std::max(d.lowerBound, info_[r].dualBound);
            cp.nodes.push_back(std::move(d));
        }
    } else {
        for (int r = 1; r <= cfg_.numSolvers; ++r) {
            if (info_[r].active && info_[r].assigned) {
                cip::SubproblemDesc d = *info_[r].assigned;
                d.lowerBound = std::max(d.lowerBound, info_[r].dualBound);
                cp.nodes.push_back(std::move(d));
            }
        }
    }
    cp.incumbent = best_;
    cp.incumbentSource = bestSource_;
    cp.incumbentSetting = bestSetting_;
    cp.dualBound = globalDualBound();
    cp.racingDone = !racingPhase_;
    // The global cut-pool snapshot rides along so a restart resumes sharing
    // from the fleet's accumulated supports instead of an empty pool.
    for (const CutSupport& cs : cutPool_.snapshot())
        cp.cuts.append(cs.vars, cs.rhsClass);
    ++stats_.checkpointSaves;
    cp.hasStats = true;
    cp.stats = stats_;
    TornWriter* torn = tornWriter_ ? &*tornWriter_ : nullptr;
    ug::saveCheckpoint(cfg_.checkpointFile, cp, torn);
    if (torn) stats_.checkpointTornWrites = torn->injected();
}

bool LoadCoordinator::loadCheckpoint() {
    CheckpointLoadReport report;
    auto cp = ug::loadCheckpoint(cfg_.checkpointFile, &report);
    if (!cp) {
        if (report.slotsPresent > 0) {
            // Slot files existed but none validated (torn writes or on-disk
            // corruption in every generation): log why, count it, and fall
            // back to a fresh root solve rather than trusting bad bytes.
            ++stats_.checkpointLoadFailures;
            std::fprintf(stderr,
                         "[LC] checkpoint restart failed (%s); "
                         "falling back to a fresh root solve\n",
                         report.error.c_str());
            std::fflush(stderr);
        }
        return false;
    }
    pool_ = std::move(cp->nodes);
    if (cp->incumbent.valid()) {
        best_ = std::move(cp->incumbent);
        cutoff_ = best_.obj;
        bestSource_ = cp->incumbentSource;
        bestSetting_ = cp->incumbentSetting;
    }
    if (cp->hasStats) {
        // Resume cumulative accounting across the restart; gauges that
        // describe a single run (ramp-up, activity peaks, end-of-run pool)
        // restart fresh.
        stats_ = cp->stats;
        stats_.maxActiveSolvers = 0;
        stats_.firstMaxActiveTime = 0.0;
        stats_.rampUpTime = -1.0;
        stats_.racingWinnerSetting = -1;
        stats_.idleRatio = 0.0;
        stats_.openNodesAtEnd = 0;
    }
    ++stats_.checkpointRestarts;
    if (!cp->cuts.empty()) {
        // Restored supports re-seed the global pool with origin 0 (the
        // coordinator itself). MergeStats are deliberately ignored: the
        // original run already counted these supports as reported/pooled,
        // and the restored cumulative stats carry those counts.
        cutPool_.merge(cp->cuts, 0);
    }
    stats_.initialOpenNodes = static_cast<long long>(pool_.size());
    if (pool_.empty() && !best_.valid()) pool_.push_back(rootDesc_);
    return true;
}

UgResult LoadCoordinator::result(double endTime) const {
    UgResult res;
    res.status = finalStatus_;
    res.best = best_;
    res.dualBound = done_ && finalStatus_ == UgStatus::Optimal
                        ? finalDualBound_
                        : globalDualBound();
    res.elapsed = endTime;
    res.stats = stats_;
    return res;
}

}  // namespace ug
