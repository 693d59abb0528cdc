#include <gtest/gtest.h>

#include "steiner/exactdp.hpp"
#include "steiner/instances.hpp"
#include "steiner/plugins.hpp"
#include "misdp/instances.hpp"
#include "ugcip/misdp_plugins.hpp"
#include "ugcip/stp_plugins.hpp"
#include "ugcip/ugcip.hpp"

using cip::kInf;
using cip::Model;
using cip::Row;

namespace {

Model simpleKnapsack() {
    Model m;
    std::vector<std::pair<int, double>> coefs;
    const double value[] = {10, 13, 7, 8};
    const double weight[] = {5, 7, 4, 3};
    for (int j = 0; j < 4; ++j) {
        m.addVar(-value[j], 0.0, 1.0, true);
        coefs.emplace_back(j, weight[j]);
    }
    m.addLinear(Row(std::move(coefs), -kInf, 10.0));
    return m;
}

class CountingPlugins : public ugcip::CipUserPlugins {
public:
    void installPlugins(cip::Solver& solver) override {
        ++installs;
        solver.params().setBool("test/installed", true);
    }
    std::vector<cip::ParamSet> racingSettings(int count) override {
        std::vector<cip::ParamSet> out(count);
        for (int i = 0; i < count; ++i) out[i].setInt("test/custom", i);
        return out;
    }
    int installs = 0;
};

}  // namespace

TEST(UgcipGlue, InstallPluginsCalledPerParaSolverInstance) {
    Model m = simpleKnapsack();
    CountingPlugins plugins;
    ug::UgConfig cfg;
    cfg.numSolvers = 3;
    ug::UgResult res =
        ugcip::solveSimulated([&] { return m; }, cfg, &plugins);
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    // One base solver per subproblem assignment; at least the root solver
    // must have been created.
    EXPECT_GE(plugins.installs, 1);
    EXPECT_EQ(plugins.installs, res.stats.transferredNodes);
}

TEST(UgcipGlue, PrepareRacingPrefersCustomSettings) {
    CountingPlugins plugins;
    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.rampUp = ug::RampUp::Racing;
    ugcip::prepareRacing(cfg, &plugins);
    ASSERT_EQ(cfg.racingSettings.size(), 4u);
    EXPECT_EQ(cfg.racingSettings[2].getInt("test/custom", -1), 2);
}

TEST(UgcipGlue, PrepareRacingFallsBackToGeneric) {
    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.rampUp = ug::RampUp::Racing;
    ugcip::prepareRacing(cfg, nullptr);
    ASSERT_EQ(cfg.racingSettings.size(), 4u);
    EXPECT_TRUE(cfg.racingSettings[0].has("randomization/permutationseed"));
}

TEST(UgcipGlue, PrepareRacingKeepsExplicitTable) {
    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.rampUp = ug::RampUp::Racing;
    cip::ParamSet p;
    p.setInt("explicit", 1);
    cfg.racingSettings = {p};
    CountingPlugins plugins;
    ugcip::prepareRacing(cfg, &plugins);
    ASSERT_EQ(cfg.racingSettings.size(), 1u);
    EXPECT_EQ(cfg.racingSettings[0].getInt("explicit", 0), 1);
}

TEST(UgcipGlue, CipBaseSolverStatusMapping) {
    Model m = simpleKnapsack();
    ugcip::CipSolverFactory factory([&] { return m; });
    auto solver = factory.create({});
    solver->load({}, nullptr);
    while (!solver->finished()) solver->step();
    EXPECT_EQ(solver->status(), ug::BaseStatus::Optimal);
    EXPECT_NEAR(solver->incumbent().obj, -21.0, 1e-6);
    EXPECT_EQ(solver->numOpenNodes(), 0);
}

TEST(UgcipGlue, SteinerRacingSettingsVaryStpKnobs) {
    steiner::Graph g = steiner::genHypercube(3, true, 1);
    steiner::SteinerSolver s(g);
    s.presolve();
    ugcip::SteinerUserPlugins plugins(s.instance());
    auto settings = plugins.racingSettings(8);
    ASSERT_EQ(settings.size(), 8u);
    bool sawVbOff = false, sawDfs = false;
    for (const auto& p : settings) {
        sawVbOff |= !p.getBool("stp/vertexbranching", true);
        sawDfs |= p.getString("nodeselection", "") == "dfs";
    }
    EXPECT_TRUE(sawVbOff);
    EXPECT_TRUE(sawDfs);
}

TEST(UgcipGlue, SteinerRootSeparationBudgetSplit) {
    // Every transferred subproblem root has depth 0, so the UG installer
    // gives it the in-tree budget (2 x separating/maxrounds = 6); the
    // sequential installer keeps 20 for the one real root. Both keep a
    // value the caller set, and only the UG installer sets objintegral.
    steiner::Graph g = steiner::genHypercube(4, true, 3);
    steiner::SteinerSolver s(g);
    s.presolve();
    ASSERT_FALSE(s.instance().trivial());
    ugcip::SteinerUserPlugins plugins(s.instance());
    for (bool preset : {false, true}) {
        cip::Solver parallel;
        cip::Solver sequential;
        if (preset) {
            parallel.params().setInt("separating/maxroundsroot", 9);
            sequential.params().setInt("separating/maxroundsroot", 9);
        }
        plugins.installPlugins(parallel);
        steiner::installStpPlugins(sequential, s.instance());
        EXPECT_EQ(parallel.params().getInt("separating/maxroundsroot", -1),
                  preset ? 9 : 6);
        EXPECT_EQ(sequential.params().getInt("separating/maxroundsroot", -1),
                  preset ? 9 : 20);
        EXPECT_EQ(parallel.params().getInt("separating/maxrounds", -1), 3);
        EXPECT_TRUE(parallel.params().getBool("misc/objintegral", false));
        EXPECT_FALSE(sequential.params().has("misc/objintegral"));
        EXPECT_NE(steiner::findStpConshdlr(parallel), nullptr);
    }
}

TEST(UgcipGlue, ToSteinerResultMapsStatusAndEdges) {
    steiner::Graph g = steiner::genHypercube(4, true, 3);
    auto opt = steiner::steinerDpOptimal(g);
    ASSERT_TRUE(opt.has_value());
    steiner::SteinerSolver s(g);
    s.presolve();
    ASSERT_FALSE(s.instance().trivial());
    ug::UgConfig cfg;
    cfg.numSolvers = 2;
    ug::UgResult res =
        ugcip::solveSteinerParallel(s.instance(), cfg, /*simulated=*/true);
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    steiner::SteinerResult sr = ugcip::toSteinerResult(s, res);
    EXPECT_EQ(sr.status, cip::Status::Optimal);
    EXPECT_NEAR(sr.cost, *opt, 1e-6);
    EXPECT_NEAR(g.costOf(sr.originalEdges), sr.cost, 1e-6);
}

TEST(UgcipGlue, ThreadAndSimEnginesAgreeOnSteiner) {
    steiner::Graph g = steiner::genHypercube(4, true, 12);
    steiner::SteinerSolver s(g);
    s.presolve();
    if (s.instance().trivial()) GTEST_SKIP();
    ug::UgConfig cfg;
    cfg.numSolvers = 2;
    ug::UgResult sim =
        ugcip::solveSteinerParallel(s.instance(), cfg, /*simulated=*/true);
    ug::UgResult thr =
        ugcip::solveSteinerParallel(s.instance(), cfg, /*simulated=*/false);
    ASSERT_EQ(sim.status, ug::UgStatus::Optimal);
    ASSERT_EQ(thr.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(sim.best.obj, thr.best.obj, 1e-6);
}

TEST(UgcipGlue, MisdpGlueSolvesBothEngines) {
    misdp::MisdpProblem p = misdp::genCardinalityLS(3, 4, 2, 9);
    misdp::MisdpSolver seq(p);
    misdp::MisdpResult sr = seq.solve();
    ASSERT_EQ(sr.status, cip::Status::Optimal);
    for (bool simulated : {true, false}) {
        ug::UgConfig cfg;
        cfg.numSolvers = 2;
        ug::UgResult res = ugcip::solveMisdpParallel(p, cfg, simulated);
        ASSERT_EQ(res.status, ug::UgStatus::Optimal) << simulated;
        EXPECT_NEAR(-res.best.obj, sr.objective, 1e-4) << simulated;
    }
}
