// Fault-tolerance tests of the Supervisor-Worker protocol: every fault
// class FaultyComm can inject (drop, delay, duplicate, reorder, kill, hang)
// must leave the optimum unchanged, on generic CIP instances as well as on
// the Steiner and MISDP example instances. The SimEngine runs are exactly
// reproducible for a fixed FaultPlan seed, so these are deterministic
// regression tests of the recovery paths (heartbeat death declaration,
// requeue-on-failure, idempotent message handling), not flaky chaos tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "misdp/instances.hpp"
#include "misdp/solver.hpp"
#include "steiner/exactdp.hpp"
#include "steiner/instances.hpp"
#include "steiner/stpsolver.hpp"
#include "ugcip/misdp_plugins.hpp"
#include "ugcip/stp_plugins.hpp"
#include "ugcip/ugcip.hpp"

using cip::kInf;
using cip::Model;
using cip::Row;

namespace {

/// Same weakly-correlated knapsack family as test_ug.cpp: decent tree size,
/// known-good via the sequential solver.
Model hardKnapsack(int n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> w(10, 30);
    Model m;
    std::vector<std::pair<int, double>> coefs;
    double total = 0;
    for (int j = 0; j < n; ++j) {
        const double weight = w(rng);
        m.addVar(-(weight + (j % 3)), 0.0, 1.0, true);
        coefs.emplace_back(j, weight);
        total += weight;
    }
    m.addLinear(Row(std::move(coefs), -kInf, std::floor(total / 2)));
    return m;
}

double sequentialOptimum(const Model& m) {
    cip::Solver s;
    Model copy = m;
    s.setModel(std::move(copy));
    EXPECT_EQ(s.solve(), cip::Status::Optimal);
    return s.incumbent().obj;
}

/// The fault classes under test. Each returns a plan with a fixed seed;
/// `heartbeat` says whether the class needs the failure detector for
/// guaranteed termination (drop and kill do; the others are loss-free).
struct FaultCase {
    const char* name;
    ug::FaultPlan plan;
    bool needsHeartbeat;
};

std::vector<FaultCase> faultCases() {
    std::vector<FaultCase> cases;
    {
        ug::FaultPlan p;
        p.dropProb = 0.08;
        cases.push_back({"drop", p, true});
    }
    {
        ug::FaultPlan p;
        p.delayProb = 0.30;
        p.delaySeconds = 0.004;
        cases.push_back({"delay", p, false});
    }
    {
        ug::FaultPlan p;
        p.duplicateProb = 0.30;
        cases.push_back({"duplicate", p, false});
    }
    {
        ug::FaultPlan p;
        p.reorderProb = 0.30;
        p.reorderWindow = 0.004;
        cases.push_back({"reorder", p, false});
    }
    {
        ug::FaultPlan p;
        p.killRank = 2;
        p.killAfterSends = 6;  // mid-subproblem: a few Status reports in
        cases.push_back({"kill", p, true});
    }
    {
        ug::FaultPlan p;
        p.killRank = 2;
        p.killAfterSends = 6;
        p.hang = true;
        cases.push_back({"hang", p, true});
    }
    return cases;
}

long long faultsFired(const ug::UgStats& s) {
    return s.msgsDropped + s.msgsDelayed + s.msgsDuplicated +
           s.msgsReordered + s.msgsSwallowedDead;
}

}  // namespace

TEST(UgFaults, EveryFaultClassPreservesKnapsackOptimum) {
    Model m = hardKnapsack(14, 42);
    const double opt = sequentialOptimum(m);

    ug::UgConfig base;
    base.numSolvers = 4;
    ug::UgResult clean = ugcip::solveSimulated([&] { return m; }, base);
    ASSERT_EQ(clean.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(clean.best.obj, opt, 1e-6);

    for (const FaultCase& fc : faultCases()) {
        ug::UgConfig cfg = base;
        cfg.faults = fc.plan;
        if (fc.needsHeartbeat) cfg.heartbeatTimeout = 0.05;
        ug::UgResult res = ugcip::solveSimulated([&] { return m; }, cfg);
        ASSERT_EQ(res.status, ug::UgStatus::Optimal) << fc.name;
        EXPECT_NEAR(res.best.obj, opt, 1e-6) << fc.name;
        EXPECT_GT(faultsFired(res.stats), 0)
            << fc.name << ": plan injected nothing — test is vacuous";
    }
}

TEST(UgFaults, KilledRankSubproblemIsRequeuedAndExcluded) {
    Model m = hardKnapsack(16, 7);
    const double opt = sequentialOptimum(m);

    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.heartbeatTimeout = 0.05;
    cfg.faults.killRank = 2;
    cfg.faults.killAfterSends = 6;
    ug::UgResult res = ugcip::solveSimulated([&] { return m; }, cfg);
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(res.best.obj, opt, 1e-6);
    // The victim was declared dead and its assigned root provably requeued,
    // then re-assigned (transferredNodes counts every assignment).
    EXPECT_EQ(res.stats.deadSolvers, 1);
    EXPECT_GE(res.stats.requeuedNodes, 1);
    EXPECT_GT(res.stats.transferredNodes, res.stats.requeuedNodes);
    EXPECT_GT(res.stats.msgsSwallowedDead, 0);
}

TEST(UgFaults, HungRankIsDeclaredDeadToo) {
    // A hang differs from a crash: the rank keeps computing and receiving
    // but its reports never arrive. From the coordinator's perspective it
    // must be indistinguishable from a crash — silence, then recovery.
    Model m = hardKnapsack(14, 11);
    const double opt = sequentialOptimum(m);

    ug::UgConfig cfg;
    cfg.numSolvers = 3;
    cfg.heartbeatTimeout = 0.05;
    cfg.faults.killRank = 1;  // rank 1 gets the root: guaranteed mid-work
    cfg.faults.killAfterSends = 4;
    cfg.faults.hang = true;
    ug::UgResult res = ugcip::solveSimulated([&] { return m; }, cfg);
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(res.best.obj, opt, 1e-6);
    EXPECT_EQ(res.stats.deadSolvers, 1);
    EXPECT_GE(res.stats.requeuedNodes, 1);
}

TEST(UgFaults, KillDuringRacingFallsBackToRoot) {
    Model m = hardKnapsack(15, 3);
    const double opt = sequentialOptimum(m);

    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.rampUp = ug::RampUp::Racing;
    cfg.racingOpenNodesLimit = 5;
    cfg.racingTimeLimit = 0.5;
    cfg.heartbeatTimeout = 0.05;
    cfg.faults.killRank = 1;
    cfg.faults.killAfterSends = 2;  // dies while every racer holds the root
    ug::UgResult res = ugcip::solveSimulated([&] { return m; }, cfg);
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(res.best.obj, opt, 1e-6);
    EXPECT_EQ(res.stats.deadSolvers, 1);
}

TEST(UgFaults, FaultScheduleIsDeterministicForFixedSeed) {
    Model m = hardKnapsack(14, 42);
    ug::UgResult runs[2];
    for (int i = 0; i < 2; ++i) {
        ug::UgConfig cfg;
        cfg.numSolvers = 4;
        cfg.heartbeatTimeout = 0.05;
        cfg.faults.dropProb = 0.05;
        cfg.faults.delayProb = 0.2;
        cfg.faults.duplicateProb = 0.2;
        cfg.faults.seed = 777;
        runs[i] = ugcip::solveSimulated([&] { return m; }, cfg);
    }
    EXPECT_DOUBLE_EQ(runs[0].elapsed, runs[1].elapsed);
    EXPECT_DOUBLE_EQ(runs[0].best.obj, runs[1].best.obj);
    EXPECT_EQ(runs[0].stats.totalNodesProcessed,
              runs[1].stats.totalNodesProcessed);
    EXPECT_EQ(runs[0].stats.msgsDropped, runs[1].stats.msgsDropped);
    EXPECT_EQ(runs[0].stats.msgsDelayed, runs[1].stats.msgsDelayed);
    EXPECT_EQ(runs[0].stats.msgsDuplicated, runs[1].stats.msgsDuplicated);
    EXPECT_EQ(runs[0].stats.ignoredMessages, runs[1].stats.ignoredMessages);
}

TEST(UgFaults, SteinerInstanceSurvivesEveryFaultClass) {
    steiner::Graph g = steiner::genHypercube(4, true, 3);
    auto opt = steiner::steinerDpOptimal(g);
    ASSERT_TRUE(opt.has_value());
    steiner::SteinerSolver seq(g);
    seq.presolve();
    ASSERT_FALSE(seq.instance().trivial());

    for (const FaultCase& fc : faultCases()) {
        ug::UgConfig cfg;
        cfg.numSolvers = 4;
        cfg.faults = fc.plan;
        if (fc.needsHeartbeat) cfg.heartbeatTimeout = 0.05;
        ug::UgResult res = ugcip::solveSteinerParallel(seq.instance(), cfg,
                                                       /*simulated=*/true);
        ASSERT_EQ(res.status, ug::UgStatus::Optimal) << fc.name;
        steiner::SteinerResult sr = ugcip::toSteinerResult(seq, res);
        EXPECT_NEAR(sr.cost, *opt, 1e-6) << fc.name;
        EXPECT_TRUE(g.spansTerminals(sr.originalEdges)) << fc.name;
    }
}

TEST(UgFaults, MisdpInstanceSurvivesEveryFaultClass) {
    misdp::MisdpProblem p = misdp::genCardinalityLS(3, 4, 2, 9);
    misdp::MisdpSolver seq(p);
    misdp::MisdpResult sr = seq.solve();
    ASSERT_EQ(sr.status, cip::Status::Optimal);

    for (const FaultCase& fc : faultCases()) {
        ug::UgConfig cfg;
        cfg.numSolvers = 4;
        cfg.faults = fc.plan;
        if (fc.needsHeartbeat) cfg.heartbeatTimeout = 0.05;
        ug::UgResult res =
            ugcip::solveMisdpParallel(p, cfg, /*simulated=*/true);
        ASSERT_EQ(res.status, ug::UgStatus::Optimal) << fc.name;
        EXPECT_NEAR(-res.best.obj, sr.objective, 1e-4) << fc.name;
    }
}

TEST(UgFaults, ThreadEngineRecoversFromKilledRank) {
    // Wall-clock variant: the victim's thread stops dead mid-subproblem and
    // the heartbeat path (not the deterministic event loop) must recover.
    Model m = hardKnapsack(14, 42);
    const double opt = sequentialOptimum(m);

    ug::UgConfig cfg;
    cfg.numSolvers = 3;
    cfg.heartbeatTimeout = 0.15;  // wall seconds >> one B&B step
    cfg.faults.killRank = 1;      // root solver: guaranteed to be busy
    cfg.faults.killAfterSends = 4;
    ug::UgResult res = ugcip::solveWithThreads([&] { return m; }, cfg);
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(res.best.obj, opt, 1e-6);
    EXPECT_EQ(res.stats.deadSolvers, 1);
    EXPECT_GE(res.stats.requeuedNodes, 1);
    EXPECT_GE(res.stats.idleRatio, 0.0);
    EXPECT_LE(res.stats.idleRatio, 1.0);
}

TEST(UgFaults, ThreadEngineBackToBackRunsAreIsolated) {
    // Reentrancy regression: run 1 is cut off by a time limit under message
    // faults (leaving delayed/duplicated traffic in the mailboxes); run 2 on
    // the SAME engine must start from a clean slate and solve to optimality.
    Model m = hardKnapsack(22, 17);
    const double opt = sequentialOptimum(m);

    ugcip::CipSolverFactory factory([&] { return m; });
    ug::UgConfig cfg;
    cfg.numSolvers = 3;
    cfg.timeLimit = 0.002;  // wall seconds: cuts the first run short
    cfg.faults.delayProb = 0.3;
    cfg.faults.delaySeconds = 0.01;
    cfg.faults.duplicateProb = 0.3;
    ug::ThreadEngine engine(factory, cfg);

    ug::UgResult first = engine.run({});
    ASSERT_TRUE(first.status == ug::UgStatus::TimeLimit ||
                first.status == ug::UgStatus::Optimal);

    engine.config().timeLimit = 1e18;
    engine.config().faults = ug::FaultPlan{};
    ug::UgResult second = engine.run({});
    ASSERT_EQ(second.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(second.best.obj, opt, 1e-6);
    EXPECT_GT(second.stats.totalNodesProcessed, 0);
    EXPECT_GE(second.stats.idleRatio, 0.0);
    EXPECT_LE(second.stats.idleRatio, 1.0);
}

TEST(UgFaults, KeepaliveSuppressesFalseDeathUnderSparseStatusReports) {
    // With periodic Status reports effectively disabled, a busy solver is
    // silent for far longer than the heartbeat timeout; the keepalive pings
    // (sent whenever heartbeatTimeout/3 passes without traffic) are the only
    // thing keeping the failure detector from declaring healthy ranks dead.
    Model m = hardKnapsack(14, 42);
    const double opt = sequentialOptimum(m);

    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.statusIntervalSteps = 1000000;
    cfg.heartbeatTimeout = 0.05;
    ug::UgResult res = ugcip::solveSimulated([&] { return m; }, cfg);
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(res.best.obj, opt, 1e-6);
    EXPECT_EQ(res.stats.deadSolvers, 0);
    EXPECT_EQ(res.stats.requeuedNodes, 0);
}

TEST(UgFaults, CorruptedCutBundlesNeverChangeTheSteinerOptimum) {
    // Payload bit-flips on the shared-cut channel: the CRC-free wire framing
    // is defended by decode validation plus receiver-side certification, so
    // heavy corruption may suppress sharing but never the optimum.
    steiner::Graph g = steiner::genHypercube(4, true, 3);
    auto opt = steiner::steinerDpOptimal(g);
    ASSERT_TRUE(opt.has_value());
    steiner::SteinerSolver seq(g);
    seq.presolve();
    ASSERT_FALSE(seq.instance().trivial());

    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.faults.corruptProb = 0.5;
    ug::UgResult res =
        ugcip::solveSteinerParallel(seq.instance(), cfg, /*simulated=*/true);
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    steiner::SteinerResult sr = ugcip::toSteinerResult(seq, res);
    EXPECT_NEAR(sr.cost, *opt, 1e-6);
    EXPECT_GT(res.stats.msgsCorrupted, 0)
        << "plan injected nothing — test is vacuous";
}

// --- stall detection: chatty-but-stuck ranks ---------------------------------

#include "ug/loadcoordinator.hpp"

namespace {

/// Base solver that wedges: it keeps stepping (and thus reporting Status)
/// but never advances its monotone work counter — unless created under the
/// fallback parameter profile, in which case it solves in one step. Models a
/// degenerate-cycling LP that a pricing switch escapes.
class StallableMock : public ug::BaseSolver {
public:
    explicit StallableMock(bool fallback) : fallback_(fallback) {}

    void load(const cip::SubproblemDesc&, const cip::Solution*) override {
        open_ = 1;
        processed_ = 0;
    }
    std::int64_t step() override {
        if (fallback_) {
            processed_ = 1;
            open_ = 0;
            best_.x = {1.0};
            best_.obj = -42.0;
            if (cb_) cb_(best_);
        }
        return 5;
    }
    bool finished() const override { return open_ == 0; }
    ug::BaseStatus status() const override {
        return finished() ? ug::BaseStatus::Optimal : ug::BaseStatus::Working;
    }
    double dualBound() const override { return -100.0; }
    int numOpenNodes() const override { return open_; }
    std::int64_t nodesProcessed() const override { return processed_; }
    const cip::Solution& incumbent() const override { return best_; }
    void injectSolution(const cip::Solution& sol) override { best_ = sol; }
    ug::LpEffort lpEffort() const override { return {}; }
    std::optional<cip::SubproblemDesc> extractOpenNode() override {
        return std::nullopt;
    }
    void setIncumbentCallback(
        std::function<void(const cip::Solution&)> cb) override {
        cb_ = std::move(cb);
    }

private:
    bool fallback_;
    int open_ = 0;
    std::int64_t processed_ = 0;
    cip::Solution best_;
    std::function<void(const cip::Solution&)> cb_;
};

class StallableFactory : public ug::BaseSolverFactory {
public:
    std::unique_ptr<ug::BaseSolver> create(const cip::ParamSet& p) override {
        return std::make_unique<StallableMock>(
            p.getString("lp/pricing", "") == "devex");
    }
};

/// ParaComm with a settable clock, recording every send — drives the
/// LoadCoordinator's failure detector deterministically without an engine.
class ClockComm : public ug::ParaComm {
public:
    explicit ClockComm(int size) : size_(size) {}
    int size() const override { return size_; }
    void send(int src, int dest, ug::Message msg) override {
        msg.src = src;
        sent.emplace_back(dest, std::move(msg));
    }
    double now(int) const override { return t; }

    int count(ug::Tag tag, int dest) const {
        int n = 0;
        for (const auto& [d, m] : sent)
            if (d == dest && m.tag == tag) ++n;
        return n;
    }
    const ug::Message* last(ug::Tag tag, int dest) const {
        const ug::Message* found = nullptr;
        for (const auto& [d, m] : sent)
            if (d == dest && m.tag == tag) found = &m;
        return found;
    }

    double t = 0.0;
    std::vector<std::pair<int, ug::Message>> sent;

private:
    int size_;
};

ug::Message stallStatus(int src, std::int64_t workDone) {
    ug::Message m;
    m.tag = ug::Tag::Status;
    m.src = src;
    m.dualBound = -10.0;
    m.openNodes = 1;
    m.nodesProcessed = 1;
    m.workDone = workDone;
    return m;
}

}  // namespace

TEST(UgStall, SimEngineRecoversFromStalledSolverViaFallbackProfile) {
    StallableFactory factory;
    ug::UgConfig cfg;
    cfg.numSolvers = 2;
    cfg.statusIntervalSteps = 1;
    cfg.heartbeatTimeout = 5.0;  // chatty rank: silence detection never fires
    cfg.stallTimeout = 0.02;
    ug::SimEngine engine(factory, cfg);
    ug::UgResult res = engine.run({});
    // The stalled root was soft-interrupted, requeued, and redispatched
    // under the fallback profile — which solves it.
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(res.best.obj, -42.0, 1e-12);
    EXPECT_EQ(res.stats.stallInterrupts, 1);
    EXPECT_EQ(res.stats.requeuedNodes, 1);
    EXPECT_EQ(res.stats.deadSolvers, 0);
    EXPECT_EQ(res.stats.transferredNodes, 2);
}

TEST(UgStall, ChattyButStuckRankIsInterruptedThenRedispatchedWithFallback) {
    ug::UgConfig cfg;
    cfg.numSolvers = 2;
    cfg.heartbeatTimeout = 100.0;
    cfg.stallTimeout = 1.0;
    ClockComm comm(3);
    ug::LoadCoordinator lc(comm, cfg);
    lc.start({});  // root -> rank 1

    // One genuine progress report, then the watermark freezes while the rank
    // stays chatty: Status keeps flowing but workDone never advances.
    comm.t = 0.5;
    lc.handleMessage(stallStatus(1, 50));
    for (double t : {0.9, 1.2, 1.5}) {
        comm.t = t;
        lc.handleMessage(stallStatus(1, 50));
    }
    comm.t = 1.6;  // 1.1s past the last watermark advance at t=0.5
    lc.onTimer(comm.t);
    EXPECT_EQ(comm.count(ug::Tag::Interrupt, 1), 1);
    EXPECT_EQ(lc.stats().stallInterrupts, 1);
    EXPECT_EQ(lc.stats().deadSolvers, 0);

    // The interrupted rank reports back incomplete: its root is requeued
    // with a bumped retry level and redispatched under the fallback profile.
    ug::Message term;
    term.tag = ug::Tag::Terminated;
    term.src = 1;
    term.completed = false;
    comm.t = 1.7;
    lc.handleMessage(term);
    EXPECT_EQ(lc.stats().requeuedNodes, 1);
    const ug::Message* sub = comm.last(ug::Tag::Subproblem, 1);
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->desc.retryLevel, 1);
    EXPECT_EQ(sub->params.getString("lp/pricing", ""), "devex");
    EXPECT_EQ(sub->params.getInt("stp/redprop/freq", 4), 0);

    // The fallback profile really turns reduction propagation off: a Steiner
    // solve under it runs no pass and fixes no arc, and still finds the
    // optimum.
    steiner::Graph g = steiner::genHypercube(4, true, 3);
    auto opt = steiner::steinerDpOptimal(g);
    ASSERT_TRUE(opt.has_value());
    steiner::SteinerSolver fallback(g);
    const steiner::SteinerResult sr = fallback.solve(sub->params);
    ASSERT_EQ(sr.status, cip::Status::Optimal);
    EXPECT_NEAR(sr.cost, *opt, 1e-6);
    EXPECT_EQ(sr.stats.redpropRuns, 0);
    EXPECT_EQ(sr.stats.redpropArcsFixed, 0);
}

TEST(UgStall, UnresponsiveStalledRankEscalatesToDead) {
    ug::UgConfig cfg;
    cfg.numSolvers = 2;
    cfg.heartbeatTimeout = 100.0;
    cfg.stallTimeout = 1.0;
    ClockComm comm(3);
    ug::LoadCoordinator lc(comm, cfg);
    lc.start({});

    comm.t = 0.5;
    lc.handleMessage(stallStatus(1, 50));
    comm.t = 1.6;
    lc.onTimer(comm.t);  // soft Interrupt
    ASSERT_EQ(comm.count(ug::Tag::Interrupt, 1), 1);

    // The Interrupt (or its Terminated reply) was lost: the rank keeps
    // sending zero-progress Status for another full stall window.
    comm.t = 2.0;
    lc.handleMessage(stallStatus(1, 50));
    comm.t = 2.7;  // 1.1s past the Interrupt at t=1.6
    lc.onTimer(comm.t);
    EXPECT_EQ(lc.stats().deadSolvers, 1);
    EXPECT_EQ(lc.stats().stallInterrupts, 1);
    EXPECT_EQ(lc.stats().requeuedNodes, 1);
    // The root moved to the surviving rank, still under the fallback
    // profile (the stall evidence travels with the retry level).
    const ug::Message* sub = comm.last(ug::Tag::Subproblem, 2);
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->desc.retryLevel, 1);
    EXPECT_EQ(sub->params.getString("lp/pricing", ""), "devex");

    // Stale traffic from the written-off rank is discarded.
    const long long ignoredBefore = lc.stats().ignoredMessages;
    comm.t = 2.8;
    lc.handleMessage(stallStatus(1, 50));
    EXPECT_GE(lc.stats().ignoredMessages, ignoredBefore + 1);
}

// --- cut-sharing quarantine: repeated corrupt bundles ------------------------

namespace {

ug::Message corruptCutStatus(int src) {
    ug::Message m = stallStatus(src, 0);
    EXPECT_TRUE(m.cuts.append({1, 5, 9}));
    // Word 1 is the support size; the flip turns it into a count that
    // overruns the blob, so decoding is guaranteed to fail.
    m.cuts.flipWireBit(1, 4);
    return m;
}

ug::Message validCutStatus(int src, const std::vector<int>& vars) {
    ug::Message m = stallStatus(src, 0);
    EXPECT_TRUE(m.cuts.append(vars));
    return m;
}

}  // namespace

TEST(UgQuarantine, RepeatedCorruptBundlesSuspendSharingWithBackoff) {
    ug::UgConfig cfg;
    cfg.numSolvers = 2;
    cfg.shareQuarantineStreak = 2;
    cfg.shareQuarantineBackoff = 0.5;
    ClockComm comm(3);
    ug::LoadCoordinator lc(comm, cfg);
    lc.start({});

    // Two consecutive corrupt bundles trip the quarantine: suspended until
    // t = 0.2 + 0.5 * 2^0 = 0.7.
    comm.t = 0.1;
    lc.handleMessage(corruptCutStatus(1));
    comm.t = 0.2;
    lc.handleMessage(corruptCutStatus(1));
    EXPECT_EQ(lc.stats().shareCutsDecodeFailures, 2);

    // Inside the window even a valid bundle is dropped whole...
    comm.t = 0.4;
    lc.handleMessage(validCutStatus(1, {2, 7}));
    EXPECT_EQ(lc.stats().shareCutsQuarantined, 1);
    EXPECT_EQ(lc.stats().shareCutsPooled, 0);

    // ...and after it expires, sharing resumes.
    comm.t = 0.8;
    lc.handleMessage(validCutStatus(1, {2, 7}));
    EXPECT_EQ(lc.stats().shareCutsPooled, 1);

    // A repeat offense doubles the backoff: suspended until 1.0 + 0.5*2 = 2.0.
    comm.t = 0.9;
    lc.handleMessage(corruptCutStatus(1));
    comm.t = 1.0;
    lc.handleMessage(corruptCutStatus(1));
    EXPECT_EQ(lc.stats().shareCutsDecodeFailures, 4);
    comm.t = 1.9;
    lc.handleMessage(validCutStatus(1, {3, 8}));
    EXPECT_EQ(lc.stats().shareCutsQuarantined, 2);
    EXPECT_EQ(lc.stats().shareCutsPooled, 1);
    comm.t = 2.1;
    lc.handleMessage(validCutStatus(1, {3, 8}));
    EXPECT_EQ(lc.stats().shareCutsPooled, 2);
}

TEST(UgQuarantine, WorkerReportedDecodeFailuresCountTowardQuarantine) {
    // Corruption on the LC->worker direction surfaces as the worker's
    // shareCutsDecodeFailures counter; the coordinator folds the delta into
    // the same per-rank quarantine as its own decode failures.
    ug::UgConfig cfg;  // default streak 3, backoff 0.25
    cfg.numSolvers = 2;
    ClockComm comm(3);
    ug::LoadCoordinator lc(comm, cfg);
    lc.start({});

    comm.t = 0.1;
    ug::Message m = stallStatus(1, 0);
    m.lpEffort.shareCutsDecodeFailures = 3;
    lc.handleMessage(m);

    // Quarantined until 0.1 + 0.25 = 0.35: a valid bundle inside is dropped.
    comm.t = 0.2;
    ug::Message v = validCutStatus(1, {4, 6});
    v.lpEffort.shareCutsDecodeFailures = 3;  // unchanged cumulative counter
    lc.handleMessage(v);
    EXPECT_EQ(lc.stats().shareCutsQuarantined, 1);
    EXPECT_EQ(lc.stats().shareCutsPooled, 0);

    // The run total sums terminal reports: worker-side failures reach it
    // through the fold of the rank's Terminated report.
    ug::Message t;
    t.tag = ug::Tag::Terminated;
    t.src = 1;
    t.lpEffort.shareCutsDecodeFailures = 3;
    lc.handleMessage(t);
    EXPECT_EQ(lc.stats().shareCutsDecodeFailures, 3);
}
