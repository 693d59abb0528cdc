#include "ug/simengine.hpp"

#include <algorithm>

namespace ug {

namespace {
constexpr double kMsgLatency = 1e-3;  ///< virtual message latency (seconds)
}  // namespace

SimEngine::SimEngine(BaseSolverFactory& factory, UgConfig cfg)
    : factory_(factory), cfg_(std::move(cfg)) {}

SimEngine::~SimEngine() = default;

void SimEngine::send(int src, int dest, Message msg) {
    msg.src = src;
    outbox_.push_back(Pending{dest, std::move(msg), 0.0});
}

void SimEngine::sendDelayed(int src, int dest, Message msg,
                            double delaySeconds) {
    msg.src = src;
    outbox_.push_back(Pending{dest, std::move(msg), delaySeconds});
}

double SimEngine::now(int rank) const {
    if (rank == 0) return lcTime_;
    return vclock_[rank];
}

void SimEngine::flushOutbox(double sendTime) {
    for (auto& p : outbox_) {
        events_.push(Event{sendTime + kMsgLatency + p.extraDelay, seq_++,
                           EventKind::MsgArrival, p.dest, std::move(p.msg)});
    }
    outbox_.clear();
}

void SimEngine::attend(int rank, double time) {
    // Give rank `rank` attention at event time `time`: deliver due messages
    // and let it work one step. A crashed rank is never attended again (its
    // queued events and inbox simply rot).
    if (faulty_ && faulty_->killed(rank)) return;
    ParaSolver& ps = *solvers_[rank];
    double eff = std::max(vclock_[rank], time);

    bool handledAny = false;
    while (!inbox_[rank].empty() && inbox_[rank].front().first <= eff + 1e-15) {
        Message m = std::move(inbox_[rank].front().second);
        inbox_[rank].pop();
        ps.handleMessage(m);
        handledAny = true;
    }
    if (handledAny) {
        // Message handling itself is treated as instantaneous; its outbound
        // messages leave at eff.
        flushOutbox(eff);
    }

    if (ps.hasWork()) {
        // Every step advances time by at least one unit (guards against
        // zero-cost steps stalling the event loop).
        const std::int64_t cost = std::max<std::int64_t>(1, ps.work());
        const double dt = static_cast<double>(cost) * cfg_.costUnitSeconds;
        busy_[rank] += dt;
        vclock_[rank] = eff + dt;
        flushOutbox(vclock_[rank]);
        events_.push(Event{vclock_[rank], seq_++, EventKind::SolverRun, rank,
                           Message{}});
    } else {
        vclock_[rank] = eff;
        outbox_.clear();  // nothing should be pending here
        if (!inbox_[rank].empty()) {
            events_.push(Event{inbox_[rank].front().first, seq_++,
                               EventKind::SolverRun, rank, Message{}});
        }
    }
}

UgResult SimEngine::run(const cip::SubproblemDesc& root) {
    const int n = cfg_.numSolvers;
    faulty_.reset();
    if (cfg_.faults.active())
        faulty_ = std::make_unique<FaultyComm>(*this, cfg_.faults);
    ParaComm& comm = faulty_ ? static_cast<ParaComm&>(*faulty_)
                             : static_cast<ParaComm&>(*this);
    lc_ = std::make_unique<LoadCoordinator>(comm, cfg_);
    solvers_.clear();
    solvers_.resize(n + 1);
    inbox_.assign(n + 1, {});
    vclock_.assign(n + 1, 0.0);
    busy_.assign(n + 1, 0.0);
    lcTime_ = 0.0;
    running_ = true;
    for (int r = 1; r <= n; ++r)
        solvers_[r] = std::make_unique<ParaSolver>(r, comm, factory_, cfg_);

    lc_->start(root);
    flushOutbox(0.0);
    if (cfg_.timeLimit < 1e17)
        events_.push(
            Event{cfg_.timeLimit, seq_++, EventKind::Timer, 0, Message{}});
    if (cfg_.rampUp == RampUp::Racing)
        events_.push(Event{cfg_.racingTimeLimit, seq_++, EventKind::Timer, 0,
                           Message{}});
    if (cfg_.checkpointInterval > 0)
        events_.push(Event{cfg_.checkpointInterval, seq_++, EventKind::Timer,
                           0, Message{}, TimerKind::Checkpoint});
    // The failure detector needs the flow of virtual time even when no
    // messages flow (e.g. the only busy rank just crashed): poll at half the
    // tightest configured timeout so a death/stall is declared within 1.5x
    // the configured window. Stall detection polls through the same timer.
    double detectTimeout = cfg_.heartbeatTimeout;
    if (cfg_.stallTimeout > 0)
        detectTimeout = detectTimeout > 0
                            ? std::min(detectTimeout, cfg_.stallTimeout)
                            : cfg_.stallTimeout;
    const double hbPeriod = detectTimeout / 2.0;
    if (detectTimeout > 0)
        events_.push(Event{hbPeriod, seq_++, EventKind::Timer, 0, Message{},
                           TimerKind::Heartbeat});

    while (!events_.empty() && !lc_->done()) {
        Event ev = events_.top();
        events_.pop();
        if (ev.kind == EventKind::Timer) {
            lcTime_ = std::max(lcTime_, ev.time);
            lc_->onTimer(ev.time);
            flushOutbox(lcTime_);
            if (!lc_->done()) {
                // Recurring coordinator timers re-arm by kind (one-shot
                // racing/time-limit events must not re-arm anything).
                if (ev.timer == TimerKind::Checkpoint)
                    events_.push(Event{ev.time + cfg_.checkpointInterval,
                                       seq_++, EventKind::Timer, 0, Message{},
                                       TimerKind::Checkpoint});
                else if (ev.timer == TimerKind::Heartbeat)
                    events_.push(Event{ev.time + hbPeriod, seq_++,
                                       EventKind::Timer, 0, Message{},
                                       TimerKind::Heartbeat});
            }
            continue;
        }
        if (ev.kind == EventKind::MsgArrival) {
            if (ev.rank == 0) {
                lcTime_ = std::max(lcTime_, ev.time);
                lc_->handleMessage(ev.msg);
                flushOutbox(lcTime_);
                lc_->onTimer(lcTime_);
                flushOutbox(lcTime_);
            } else {
                inbox_[ev.rank].emplace(ev.time, std::move(ev.msg));
                attend(ev.rank, ev.time);
            }
            continue;
        }
        // SolverRun
        attend(ev.rank, ev.time);
    }

    running_ = false;
    const double endTime = lcTime_;
    UgResult res = lc_->result(endTime);
    // Idle ratio over the makespan: fraction of solver-seconds not spent in
    // base-solver work.
    double busySum = 0.0;
    for (int r = 1; r <= n; ++r) busySum += busy_[r];
    const double total = endTime * n;
    res.stats.idleRatio = total > 0 ? std::max(0.0, 1.0 - busySum / total) : 0.0;
    if (faulty_) {
        const FaultyComm::Counters c = faulty_->counters();
        res.stats.msgsDropped = c.dropped;
        res.stats.msgsDelayed = c.delayed;
        res.stats.msgsDuplicated = c.duplicated;
        res.stats.msgsReordered = c.reordered;
        res.stats.msgsSwallowedDead = c.swallowedDead;
        res.stats.msgsCorrupted = c.corrupted;
    }
    // Drain leftover events for reuse safety.
    while (!events_.empty()) events_.pop();
    outbox_.clear();
    return res;
}

}  // namespace ug
