#include "ug/parasolver.hpp"

namespace ug {

const char* toString(Tag t) {
    switch (t) {
        case Tag::Subproblem: return "Subproblem";
        case Tag::RacingSubproblem: return "RacingSubproblem";
        case Tag::RacingStop: return "RacingStop";
        case Tag::CollectAll: return "CollectAll";
        case Tag::StartCollecting: return "StartCollecting";
        case Tag::StopCollecting: return "StopCollecting";
        case Tag::SolutionPush: return "SolutionPush";
        case Tag::Termination: return "Termination";
        case Tag::Interrupt: return "Interrupt";
        case Tag::SolutionFound: return "SolutionFound";
        case Tag::Status: return "Status";
        case Tag::NodeTransfer: return "NodeTransfer";
        case Tag::Terminated: return "Terminated";
        case Tag::RacingFinished: return "RacingFinished";
    }
    return "?";
}

const char* toString(UgStatus s) {
    switch (s) {
        case UgStatus::Optimal: return "optimal";
        case UgStatus::Infeasible: return "infeasible";
        case UgStatus::TimeLimit: return "timelimit";
        case UgStatus::Failed: return "failed";
    }
    return "?";
}

ParaSolver::ParaSolver(int rank, ParaComm& comm, BaseSolverFactory& factory,
                       const UgConfig& cfg)
    : rank_(rank),
      comm_(comm),
      factory_(factory),
      cfg_(cfg),
      shareCuts_(cfg.baseParams.getBool("stp/share/enable", true)) {}

bool ParaSolver::hasWork() const {
    return active_ && solver_ && !solver_->finished() && !terminated_;
}

void ParaSolver::startSubproblem(const Message& m, bool racing) {
    if (active_ || terminated_) {
        // Duplicated (or badly delayed) assignment: the coordinator never
        // legitimately assigns to a busy rank, so starting over would throw
        // away the in-flight subproblem without reporting it. Ignore.
        return;
    }
    cip::ParamSet params = cfg_.baseParams;
    // Racing settings and stall-fallback profiles both travel in m.params;
    // ordinary assignments carry an empty set, so the merge is a no-op there.
    params.merge(m.params);
    solver_ = factory_.create(params);
    racing_ = racing;
    settingId_ = m.settingId;
    stepsSinceStatus_ = 0;
    lastStatusTime_ = comm_.now(rank_);
    busyUnits_ = 0;  // per-subproblem: the coordinator sums Terminated reports
    if (m.sol.valid() &&
        (!bestKnown_.valid() || m.sol.obj < bestKnown_.obj)) {
        bestKnown_ = m.sol;
    }
    solver_->setIncumbentCallback([this](const cip::Solution& sol) {
        if (!bestKnown_.valid() || sol.obj < bestKnown_.obj - 1e-12) {
            bestKnown_ = sol;
            Message out;
            out.tag = Tag::SolutionFound;
            out.sol = sol;
            out.settingId = settingId_;
            comm_.send(rank_, 0, out);
        }
    });
    solver_->load(m.desc, bestKnown_.valid() ? &bestKnown_ : nullptr);
    // Shared-cut priming: offer the coordinator's bundle before the first
    // step. The base solver certifies + violation-checks each support against
    // its own relaxation before any of them can become an LP row.
    if (shareCuts_ && !m.cuts.empty()) solver_->primeSharedCuts(m.cuts);
    active_ = true;
    // Layered presolving may already settle the subproblem (infeasibility or
    // trivial optimality); report immediately, or the coordinator would wait
    // forever for a worker that has no work to do.
    if (solver_->finished()) finishSubproblem(solver_->status());
}

void ParaSolver::finishSubproblem(BaseStatus status) {
    Message out;
    out.tag = racing_ ? (status == BaseStatus::Optimal ||
                                 status == BaseStatus::Infeasible
                             ? Tag::RacingFinished
                             : Tag::Terminated)
                      : Tag::Terminated;
    out.dualBound = solver_ ? solver_->dualBound() : -cip::kInf;
    out.nodesProcessed = solver_ ? solver_->nodesProcessed() : 0;
    out.busyCost = busyUnits_;
    if (solver_) out.lpEffort = solver_->lpEffort();
    if (solver_ && shareCuts_)
        out.cuts = solver_->takeShareableCuts(kShareMaxCuts);
    out.settingId = settingId_;
    out.completed =
        status == BaseStatus::Optimal || status == BaseStatus::Infeasible;
    // Always attach the best known incumbent: if an earlier SolutionFound
    // was lost in transit, the final report re-delivers the certificate
    // (echoing the coordinator's own broadcast back is harmless — adoption
    // requires strict improvement).
    cip::Solution report = bestKnown_;
    if (solver_ && solver_->incumbent().valid() &&
        (!report.valid() || solver_->incumbent().obj < report.obj))
        report = solver_->incumbent();
    if (report.valid()) out.sol = std::move(report);
    comm_.send(rank_, 0, out);
    active_ = false;
    racing_ = false;
    collectMode_ = false;  // the coordinator resets its flag on Terminated
    collectKeep_ = 1;
    solver_.reset();
}

void ParaSolver::sendStatus() {
    if (!solver_) return;
    Message out;
    out.tag = Tag::Status;
    out.dualBound = solver_->dualBound();
    out.openNodes = solver_->numOpenNodes();
    out.nodesProcessed = solver_->nodesProcessed();
    out.busyCost = busyUnits_;
    out.lpEffort = solver_->lpEffort();
    // Monotone progress watermark for the coordinator's stall detector: a
    // healthy solver strictly advances it, a looping one does not.
    out.workDone = out.lpEffort.lpIterations + out.nodesProcessed;
    if (shareCuts_) out.cuts = solver_->takeShareableCuts(kShareMaxCuts);
    out.settingId = settingId_;
    lastStatusTime_ = comm_.now(rank_);
    comm_.send(rank_, 0, out);
}

void ParaSolver::drainAllOpenNodes() {
    if (!solver_) return;
    while (auto node = solver_->extractOpenNode()) {
        Message out;
        out.tag = Tag::NodeTransfer;
        out.desc = std::move(*node);
        comm_.send(rank_, 0, out);
    }
}

void ParaSolver::handleMessage(const Message& m) {
    switch (m.tag) {
        case Tag::Subproblem:
            startSubproblem(m, /*racing=*/false);
            break;
        case Tag::RacingSubproblem:
            startSubproblem(m, /*racing=*/true);
            break;
        case Tag::RacingStop:
            // Lost the race: the tree is discarded; solutions were already
            // reported through SolutionFound messages. Only meaningful while
            // actually racing — a stale/duplicated copy arriving during a
            // later normal subproblem must not kill it.
            if (active_ && racing_) finishSubproblem(BaseStatus::Interrupted);
            break;
        case Tag::CollectAll:
            // Racing winner: hand the entire frontier to the coordinator,
            // then become an ordinary idle worker. Same staleness guard as
            // RacingStop: draining a *normal* subproblem's frontier and
            // self-terminating would force the coordinator down the requeue
            // path for no reason.
            if (active_ && racing_) {
                drainAllOpenNodes();
                finishSubproblem(BaseStatus::Interrupted);
            }
            break;
        case Tag::StartCollecting:
            collectMode_ = true;
            // collectKeep = 0 marks a ramp-down engagement: the coordinator
            // decided this solver's single remaining node is heavy enough to
            // be worth re-parallelizing, so it may ship its last node and go
            // idle.
            collectKeep_ = m.collectKeep < 0 ? 0 : m.collectKeep;
            break;
        case Tag::StopCollecting:
            collectMode_ = false;
            collectKeep_ = 1;
            break;
        case Tag::SolutionPush:
            if (m.sol.valid() &&
                (!bestKnown_.valid() || m.sol.obj < bestKnown_.obj - 1e-12)) {
                bestKnown_ = m.sol;
                if (solver_) solver_->injectSolution(m.sol);
            }
            break;
        case Tag::Interrupt:
            if (active_) finishSubproblem(BaseStatus::Interrupted);
            break;
        case Tag::Termination:
            if (active_) finishSubproblem(BaseStatus::Interrupted);
            terminated_ = true;
            break;
        default:
            break;  // worker->supervisor tags are never delivered here
    }
}

std::int64_t ParaSolver::work() {
    if (!hasWork()) return 0;
    const std::int64_t cost = solver_->step();
    busyUnits_ += cost;

    if (solver_->finished()) {
        finishSubproblem(solver_->status());
        return cost;
    }

    ++stepsSinceStatus_;
    // Keepalive: a solver diving deep between scheduled Status reports (a
    // large statusIntervalSteps, or simply expensive steps) must not trip
    // the coordinator's failure detector while healthy. One third of the
    // timeout leaves room for two lost/late keepalives plus latency before
    // silence reaches heartbeatTimeout. Deterministic under SimEngine: the
    // comparison uses the rank's virtual clock.
    const bool keepalive =
        cfg_.heartbeatTimeout > 0 &&
        comm_.now(rank_) - lastStatusTime_ >= cfg_.heartbeatTimeout / 3.0;
    if (stepsSinceStatus_ >= cfg_.statusIntervalSteps || keepalive) {
        sendStatus();
        stepsSinceStatus_ = 0;
    }

    // In collect mode, ship the best candidate open node. Normally at least
    // one node is kept so this solver stays busy; a ramp-down engagement
    // (collectKeep_ == 0) allows shipping the last node so its heavy subtree
    // can be split across idle ranks.
    if (collectMode_ && !racing_ &&
        solver_->numOpenNodes() > static_cast<std::int64_t>(collectKeep_)) {
        if (auto node = solver_->extractOpenNode()) {
            Message out;
            out.tag = Tag::NodeTransfer;
            out.desc = std::move(*node);
            comm_.send(rank_, 0, out);
        }
    }
    return cost;
}

}  // namespace ug
