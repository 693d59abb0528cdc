#include <algorithm>
// Protocol-level tests of the Supervisor-Worker machinery with a scripted
// mock base solver — exercises the LoadCoordinator/ParaSolver message flow
// (Algorithms 1 & 2) independently of the CIP stack: collect-mode node
// transfer, incumbent broadcast, racing winner selection, and termination.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "ug/checkpoint.hpp"
#include "ug/simengine.hpp"

namespace {

/// Scripted base solver with *conserved* work: a synthetic tree of
/// `treeNodes` nodes in total. Extracting an open node hands away that node
/// plus half of the not-yet-opened budget, encoded in the subproblem
/// description, so the sum of nodes processed across all solvers equals the
/// original tree size exactly.
class MockSolver : public ug::BaseSolver {
public:
    MockSolver(int treeNodes, std::int64_t stepCost, int solutionAt,
               double solutionObj)
        : treeNodes_(treeNodes),
          stepCost_(stepCost),
          solutionAt_(solutionAt),
          solutionObj_(solutionObj) {}

    void load(const cip::SubproblemDesc& desc,
              const cip::Solution* incumbent) override {
        rootTree_ = desc.boundChanges.empty();
        remaining_ = rootTree_ ? treeNodes_
                               : static_cast<int>(desc.boundChanges.size());
        open_ = 1;
        processed_ = 0;
        if (incumbent && incumbent->valid()) sawIncumbent_ = true;
    }

    std::int64_t step() override {
        ++processed_;
        --open_;
        --remaining_;
        const int spawn =
            std::min(2, std::max(0, remaining_ - open_));
        open_ += spawn;
        if (rootTree_ && processed_ == solutionAt_) {
            best_.x = {0.0};
            best_.obj = solutionObj_;
            if (cb_) cb_(best_);
        } else if (!rootTree_ && processed_ == 1) {
            best_.x = {1.0};
            best_.obj = solutionObj_ + 10.0;  // transferred subtrees: worse
            if (cb_) cb_(best_);
        }
        return stepCost_;
    }

    bool finished() const override { return open_ == 0; }
    ug::BaseStatus status() const override {
        return finished() ? ug::BaseStatus::Optimal
                          : ug::BaseStatus::Working;
    }
    double dualBound() const override { return -1000.0 + processed_; }
    int numOpenNodes() const override { return open_; }
    std::int64_t nodesProcessed() const override { return processed_; }
    const cip::Solution& incumbent() const override { return best_; }
    void injectSolution(const cip::Solution& sol) override {
        if (!best_.valid() || sol.obj < best_.obj) best_ = sol;
        sawIncumbent_ = true;
    }
    ug::LpEffort lpEffort() const override {
        // Deterministic synthetic LP effort: 5 iterations and one
        // factorization per processed node, so aggregated totals follow from
        // the mock's work conservation.
        ug::LpEffort e;
        e.lpIterations = processed_ * 5;
        e.lpFactorizations = processed_;
        e.basisWarmStarts = processed_;
        // Synthetic cut-pool counters: two duplicate rejections per node and
        // a constant pool size, so the folded totals are exact.
        e.cutDupRejected = processed_ * 2;
        e.cutDominatedRejected = processed_;
        e.cutPoolSize = 7;
        return e;
    }
    std::optional<cip::SubproblemDesc> extractOpenNode() override {
        if (open_ < 2) return std::nullopt;
        const int budget = remaining_ - open_;  // not-yet-opened nodes
        const int take = 1 + std::max(0, budget / 2);
        --open_;
        remaining_ -= take;
        ++extracted_;
        cip::SubproblemDesc d;
        for (int i = 0; i < take; ++i) d.boundChanges.push_back({i, 0, 1});
        d.lowerBound = -900.0;
        return d;
    }
    void setIncumbentCallback(
        std::function<void(const cip::Solution&)> cb) override {
        cb_ = std::move(cb);
    }

    bool sawIncumbent_ = false;
    int extracted_ = 0;

private:
    int treeNodes_;
    std::int64_t stepCost_;
    int solutionAt_;
    double solutionObj_;
    bool rootTree_ = true;
    int remaining_ = 0;
    int open_ = 0;
    std::int64_t processed_ = 0;
    cip::Solution best_;
    std::function<void(const cip::Solution&)> cb_;
};

class MockFactory : public ug::BaseSolverFactory {
public:
    MockFactory(int treeNodes, std::int64_t stepCost)
        : treeNodes_(treeNodes), stepCost_(stepCost) {}
    std::unique_ptr<ug::BaseSolver> create(const cip::ParamSet& p) override {
        ++created;
        // Racing settings can scale the per-step cost (diverse "speeds").
        const std::int64_t cost =
            stepCost_ * (1 + p.getInt("mock/slowdown", 0));
        return std::make_unique<MockSolver>(treeNodes_, cost, 1, -50.0);
    }
    int created = 0;

private:
    int treeNodes_;
    std::int64_t stepCost_;
};

}  // namespace

TEST(UgProtocol, CollectModeFeedsIdleSolvers) {
    MockFactory factory(120, 10);
    ug::UgConfig cfg;
    cfg.numSolvers = 6;
    ug::SimEngine engine(factory, cfg);
    ug::UgResult res = engine.run({});
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    // Normal ramp-up must have transferred nodes to every solver.
    EXPECT_GE(res.stats.transferredNodes, 6);
    EXPECT_GT(res.stats.collectedNodes, 0);
    EXPECT_EQ(res.stats.maxActiveSolvers, 6);
    EXPECT_GE(res.stats.rampUpTime, 0.0);
    // One base solver instance per assignment.
    EXPECT_EQ(factory.created, res.stats.transferredNodes);
}

TEST(UgProtocol, SolutionIsBroadcastAndAdopted) {
    MockFactory factory(60, 10);
    ug::UgConfig cfg;
    cfg.numSolvers = 3;
    ug::SimEngine engine(factory, cfg);
    ug::UgResult res = engine.run({});
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    ASSERT_TRUE(res.best.valid());
    // The best solution is the root-tree solver's.
    EXPECT_NEAR(res.best.obj, -50.0, 1e-12);
    EXPECT_GE(res.stats.solutionsReceived, 1);
}

TEST(UgProtocol, BusyAccountingMatchesWorkDone) {
    MockFactory factory(80, 25);
    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.costUnitSeconds = 1e-3;
    ug::SimEngine engine(factory, cfg);
    ug::UgResult res = engine.run({});
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    // Work conservation: exactly the original tree is processed, once.
    EXPECT_EQ(res.stats.totalNodesProcessed, 80);
    // Total busy units = steps * 25 (every step costs 25 in the mock).
    EXPECT_EQ(res.stats.busyUnits, res.stats.totalNodesProcessed * 25);
    // Makespan at least the critical path: root solver's share of the work.
    EXPECT_GE(res.elapsed,
              res.stats.busyUnits * cfg.costUnitSeconds / cfg.numSolvers -
                  1e-9);
}

TEST(UgProtocol, LpEffortIsAggregatedIntoRunStats) {
    MockFactory factory(120, 10);
    ug::UgConfig cfg;
    cfg.numSolvers = 6;
    ug::SimEngine engine(factory, cfg);
    ug::UgResult res = engine.run({});
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    // Each solver reports its LpEffort with the Terminated message and the
    // LoadCoordinator folds it into the run statistics; with the mock's
    // conserved tree the totals are exact multiples of the nodes processed.
    EXPECT_EQ(res.stats.lpIterations, res.stats.totalNodesProcessed * 5);
    EXPECT_EQ(res.stats.lpFactorizations, res.stats.totalNodesProcessed);
    EXPECT_EQ(res.stats.basisWarmStarts, res.stats.totalNodesProcessed);
    EXPECT_EQ(res.stats.strongBranchProbes, 0);
    // Cut-pool counters ride the same LpEffort reports.
    EXPECT_EQ(res.stats.cutDupRejected,
              res.stats.totalNodesProcessed * 2);
    EXPECT_EQ(res.stats.cutDominatedRejected,
              res.stats.totalNodesProcessed);
    EXPECT_EQ(res.stats.cutPoolSize, 7);
}

TEST(UgProtocol, RacingPicksWinnerAndRecordsSetting) {
    MockFactory factory(200, 10);
    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.rampUp = ug::RampUp::Racing;
    cfg.racingOpenNodesLimit = 8;
    cfg.racingTimeLimit = 100.0;  // open-node criterion decides
    // Diverse settings: solver 1 fast, others slower.
    for (int i = 0; i < 4; ++i) {
        cip::ParamSet p;
        p.setInt("mock/slowdown", i);
        cfg.racingSettings.push_back(std::move(p));
    }
    ug::SimEngine engine(factory, cfg);
    ug::UgResult res = engine.run({});
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    // A winner was chosen (instance too big to finish during racing) and it
    // is recorded; with the open-node criterion the fastest setting (0) has
    // the most progress when the threshold trips.
    EXPECT_GE(res.stats.racingWinnerSetting, 0);
    EXPECT_LT(res.stats.racingWinnerSetting, 4);
}

TEST(UgProtocol, DeterministicTraceWithMockSolver) {
    for (int rep = 0; rep < 2; ++rep) {
        MockFactory f1(150, 7), f2(150, 7);
        ug::UgConfig cfg;
        cfg.numSolvers = 5;
        ug::SimEngine e1(f1, cfg), e2(f2, cfg);
        ug::UgResult a = e1.run({});
        ug::UgResult b = e2.run({});
        EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
        EXPECT_EQ(a.stats.transferredNodes, b.stats.transferredNodes);
        EXPECT_EQ(a.stats.collectedNodes, b.stats.collectedNodes);
        EXPECT_EQ(a.stats.totalNodesProcessed, b.stats.totalNodesProcessed);
    }
}

TEST(UgProtocol, ForceStopDuringRacingCheckpointsOneRootAndRestarts) {
    // Deterministic forceStop while racing is still running: the run must be
    // cut off cleanly (racers interrupted, statistics complete) and the
    // checkpoint must contain exactly ONE copy of the root — not one per
    // racer, which is what the naive per-rank `assigned` walk used to write.
    const std::string path = "/tmp/ugtest_racing_checkpoint.txt";
    ug::removeCheckpointFiles(path);

    const std::int64_t stepCost = 10;
    MockFactory factory(400, stepCost);
    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.rampUp = ug::RampUp::Racing;
    // Identical settings are fine here (the mock treats them alike); without
    // an explicit table the engine would skip racing altogether.
    cfg.racingSettings.assign(4, cip::ParamSet{});
    cfg.racingTimeLimit = 100.0;       // neither racing criterion trips...
    cfg.racingOpenNodesLimit = 100000;
    cfg.checkpointFile = path;
    cfg.timeLimit = 0.05;  // ...before the virtual time limit forces a stop
    ug::SimEngine engine(factory, cfg);
    ug::UgResult res = engine.run({});
    ASSERT_EQ(res.status, ug::UgStatus::TimeLimit);
    // Racers were interrupted with their statistics folded in: the mock's
    // work conservation means every processed node cost exactly stepCost.
    EXPECT_GT(res.stats.totalNodesProcessed, 0);
    EXPECT_EQ(res.stats.busyUnits, res.stats.totalNodesProcessed * stepCost);

    // Mid-racing checkpoint: every racer holds the same root, so dedupe to
    // one primitive node.
    auto cp = ug::loadCheckpoint(path);
    ASSERT_TRUE(cp.has_value());
    ASSERT_EQ(cp->nodes.size(), 1u);
    EXPECT_TRUE(cp->nodes[0].isRoot());
    // The incumbent found during racing made it into the checkpoint.
    ASSERT_TRUE(cp->incumbent.valid());
    EXPECT_NEAR(cp->incumbent.obj, -50.0, 1e-12);

    // Restarting from that checkpoint resumes from exactly one open node and
    // runs the instance to completion.
    MockFactory factory2(400, stepCost);
    ug::UgConfig cfg2;
    cfg2.numSolvers = 4;
    cfg2.checkpointFile = path;
    cfg2.restartFromCheckpoint = true;
    ug::SimEngine engine2(factory2, cfg2);
    ug::UgResult second = engine2.run({});
    ASSERT_EQ(second.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(second.best.obj, -50.0, 1e-12);
    EXPECT_EQ(second.stats.initialOpenNodes, 1);
    ug::removeCheckpointFiles(path);
}

TEST(UgProtocol, MoreSolversNeverIncreaseMakespanOnWideTree) {
    // A wide synthetic tree parallelizes well; the simulated makespan must
    // be (weakly) monotone decreasing in solver count.
    double prev = 1e100;
    for (int n : {1, 2, 4, 8}) {
        MockFactory factory(300, 20);
        ug::UgConfig cfg;
        cfg.numSolvers = n;
        ug::SimEngine engine(factory, cfg);
        ug::UgResult res = engine.run({});
        ASSERT_EQ(res.status, ug::UgStatus::Optimal) << n;
        EXPECT_LE(res.elapsed, prev * 1.10) << n;  // 10% protocol tolerance
        prev = res.elapsed;
    }
}

// --- collect-mode ramp-down: heavy single-node suppliers ----------------------

#include "ug/loadcoordinator.hpp"
#include "ug/parasolver.hpp"

namespace {

/// ParaComm that just records every send (src is stamped like the real
/// comms do), for driving LoadCoordinator/ParaSolver handlers directly.
class RecordingComm : public ug::ParaComm {
public:
    explicit RecordingComm(int size) : size_(size) {}
    int size() const override { return size_; }
    void send(int src, int dest, ug::Message msg) override {
        msg.src = src;
        sent.emplace_back(dest, std::move(msg));
    }
    double now(int) const override { return 0.0; }

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

    std::vector<std::pair<int, ug::Message>> sent;

private:
    int size_;
};

/// Base solver stuck on exactly one open node forever: the node never
/// finishes on its own, but extraction may drain it to zero (mimicking the
/// cip solver, where finished() only trips on the step after the tree
/// empties).
class LastNodeMock : public ug::BaseSolver {
public:
    void load(const cip::SubproblemDesc&, const cip::Solution*) override {
        open_ = 1;
        finished_ = false;
    }
    std::int64_t step() override {
        if (open_ == 0) {
            finished_ = true;
            return 1;
        }
        ++processed_;
        return 1;
    }
    bool finished() const override { return finished_; }
    ug::BaseStatus status() const override {
        return finished_ ? ug::BaseStatus::Optimal : ug::BaseStatus::Working;
    }
    double dualBound() const override { return -1.0; }
    int numOpenNodes() const override { return open_; }
    std::int64_t nodesProcessed() const override { return processed_; }
    const cip::Solution& incumbent() const override { return best_; }
    void injectSolution(const cip::Solution& sol) override { best_ = sol; }
    ug::LpEffort lpEffort() const override { return {}; }
    std::optional<cip::SubproblemDesc> extractOpenNode() override {
        if (open_ < 1) return std::nullopt;
        --open_;
        cip::SubproblemDesc d;
        d.boundChanges.push_back({0, 0, 1});
        d.lowerBound = -1.0;
        return d;
    }
    void setIncumbentCallback(
        std::function<void(const cip::Solution&)> cb) override {
        cb_ = std::move(cb);
    }

private:
    int open_ = 0;
    bool finished_ = false;
    std::int64_t processed_ = 0;
    cip::Solution best_;
    std::function<void(const cip::Solution&)> cb_;
};

class LastNodeFactory : public ug::BaseSolverFactory {
public:
    std::unique_ptr<ug::BaseSolver> create(const cip::ParamSet&) override {
        return std::make_unique<LastNodeMock>();
    }
};

ug::Message statusReport(int src, std::int64_t openNodes,
                         std::int64_t nodesProcessed,
                         std::int64_t lpIterations) {
    ug::Message m;
    m.tag = ug::Tag::Status;
    m.src = src;
    m.dualBound = -10.0;
    m.openNodes = openNodes;
    m.nodesProcessed = nodesProcessed;
    m.lpEffort.lpIterations = lpIterations;
    return m;
}

}  // namespace

TEST(UgCollectMode, HeavySingleNodeSolverIsEngagedWithKeepZero) {
    ug::UgConfig cfg;
    cfg.numSolvers = 2;
    RecordingComm comm(cfg.numSolvers + 1);
    ug::LoadCoordinator lc(comm, cfg);
    lc.start({});  // root goes to rank 1; rank 2 stays idle

    // Rank 1 sits on ONE open node that has eaten 1000 simplex iterations
    // per processed node: effort-weighted frontier 1000 >= the 256 default
    // threshold. The pre-fix >= 2 gate never engaged such a solver, leaving
    // rank 2 idle for the rest of the run.
    lc.handleMessage(statusReport(1, 1, 4, 4000));

    ASSERT_EQ(comm.count(ug::Tag::StartCollecting, 1), 1);
    const ug::Message* sc = comm.last(ug::Tag::StartCollecting, 1);
    ASSERT_NE(sc, nullptr);
    EXPECT_EQ(sc->collectKeep, 0);  // may ship its last open node
}

TEST(UgCollectMode, CheapSingleNodeSolverIsLeftAlone) {
    ug::UgConfig cfg;
    cfg.numSolvers = 2;
    RecordingComm comm(cfg.numSolvers + 1);
    ug::LoadCoordinator lc(comm, cfg);
    lc.start({});

    // Same single open node, but trivial LP effort (weight 1 < 256):
    // shipping it would just move the work, not parallelize it.
    lc.handleMessage(statusReport(1, 1, 4, 4));
    EXPECT_EQ(comm.count(ug::Tag::StartCollecting, 1), 0);
}

TEST(UgCollectMode, MultiNodeSupplierStillKeepsOneNode) {
    ug::UgConfig cfg;
    cfg.numSolvers = 2;
    RecordingComm comm(cfg.numSolvers + 1);
    ug::LoadCoordinator lc(comm, cfg);
    lc.start({});

    lc.handleMessage(statusReport(1, 5, 4, 4000));
    ASSERT_EQ(comm.count(ug::Tag::StartCollecting, 1), 1);
    const ug::Message* sc = comm.last(ug::Tag::StartCollecting, 1);
    ASSERT_NE(sc, nullptr);
    EXPECT_EQ(sc->collectKeep, 1);  // ordinary supplier keeps one for itself
}

TEST(UgCollectMode, CollectKeepZeroShipsLastNodeThenTerminates) {
    ug::UgConfig cfg;
    cfg.numSolvers = 1;
    cfg.statusIntervalSteps = 1000000;  // suppress Status noise
    RecordingComm comm(2);
    LastNodeFactory factory;
    ug::ParaSolver ps(1, comm, factory, cfg);

    ug::Message sub;
    sub.tag = ug::Tag::Subproblem;
    ps.handleMessage(sub);

    // Default keep (1): the last open node must stay put.
    ug::Message sc;
    sc.tag = ug::Tag::StartCollecting;
    sc.collectKeep = 1;
    ps.handleMessage(sc);
    ps.work();
    EXPECT_EQ(comm.count(ug::Tag::NodeTransfer, 0), 0);

    // Ramp-down engagement: keep 0 ships the last node...
    sc.collectKeep = 0;
    ps.handleMessage(sc);
    ps.work();
    EXPECT_EQ(comm.count(ug::Tag::NodeTransfer, 0), 1);

    // ...and the next step finds the tree empty and reports Terminated with
    // completed=true (the shipped node carries the remaining coverage).
    ps.work();
    ASSERT_EQ(comm.count(ug::Tag::Terminated, 0), 1);
    const ug::Message* term = comm.last(ug::Tag::Terminated, 0);
    ASSERT_NE(term, nullptr);
    EXPECT_TRUE(term->completed);
    EXPECT_FALSE(ps.hasWork());
}
