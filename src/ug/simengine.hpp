// SimEngine: deterministic discrete-event execution of the Supervisor-Worker
// protocol with a virtual clock per rank.
//
// This is the repository's substitute for running ug[*, MPI] on a cluster
// (see DESIGN.md): every ParaSolver advances its own virtual clock by the
// deterministic cost of each base-solver step; messages travel with a
// fixed 1 ms latency (kMsgLatency); the LoadCoordinator observes virtual
// time. The makespan, idle ratios, ramp-up times and max-active-solver
// statistics of Tables 1-3 are read off this simulation. Single-threaded
// and exactly reproducible.
//
// Fault injection: when cfg.faults is active all traffic is routed through a
// FaultyComm decorator; delayed/reordered messages become events with extra
// latency, a crashed rank stops being scheduled, and (with heartbeats
// enabled) a recurring virtual-time timer keeps the LoadCoordinator's
// failure detector running even when no messages flow. Fault schedules are
// a deterministic function of the FaultPlan seed.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "ug/basesolver.hpp"
#include "ug/config.hpp"
#include "ug/faultycomm.hpp"
#include "ug/loadcoordinator.hpp"
#include "ug/paracomm.hpp"
#include "ug/parasolver.hpp"

namespace ug {

class SimEngine : public ParaComm {
public:
    SimEngine(BaseSolverFactory& factory, UgConfig cfg);
    ~SimEngine() override;

    /// Run the whole parallel solve; `root` is the instance root subproblem.
    UgResult run(const cip::SubproblemDesc& root = {});

    /// Mutable run configuration — lets a harness retune (time limit,
    /// faults, ...) between back-to-back run() calls on the same engine.
    UgConfig& config() { return cfg_; }

    /// The fault layer of the current/last run (null when no plan active).
    const FaultyComm* faultyComm() const { return faulty_.get(); }

    // ParaComm
    int size() const override { return cfg_.numSolvers + 1; }
    void send(int src, int dest, Message msg) override;
    void sendDelayed(int src, int dest, Message msg,
                     double delaySeconds) override;
    double now(int rank) const override;

    /// Per-rank busy time (virtual seconds), available after run().
    const std::vector<double>& busyTime() const { return busy_; }

private:
    enum class EventKind { MsgArrival, SolverRun, Timer };
    /// Recurring coordinator timers re-arm themselves by kind; one-shot
    /// timers (racing deadline, time limit) use OneShot.
    enum class TimerKind { OneShot, Checkpoint, Heartbeat };
    struct Event {
        double time;
        std::int64_t seq;
        EventKind kind;
        int rank;
        Message msg;
        TimerKind timer = TimerKind::OneShot;
    };
    struct EventOrder {
        bool operator()(const Event& a, const Event& b) const {
            if (a.time != b.time) return a.time > b.time;
            return a.seq > b.seq;
        }
    };
    struct Pending {
        int dest;
        Message msg;
        double extraDelay;  ///< fault-injected latency on top of kMsgLatency
    };

    void flushOutbox(double sendTime);
    void attend(int rank, double time);

    BaseSolverFactory& factory_;
    UgConfig cfg_;

    std::priority_queue<Event, std::vector<Event>, EventOrder> events_;
    std::int64_t seq_ = 0;
    std::vector<Pending> outbox_;

    std::unique_ptr<FaultyComm> faulty_;
    std::unique_ptr<LoadCoordinator> lc_;
    std::vector<std::unique_ptr<ParaSolver>> solvers_;  ///< index 1..N
    std::vector<std::queue<std::pair<double, Message>>> inbox_;
    std::vector<double> vclock_;
    std::vector<double> busy_;
    double lcTime_ = 0.0;
    bool running_ = false;
};

}  // namespace ug
