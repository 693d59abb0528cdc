// Second CIP test pass: managed rows (constraint branching machinery), cut
// pool aging, limits, node-selection strategies and propagation internals.
#include <gtest/gtest.h>

#include <random>

#include "cip/model.hpp"
#include "cip/plugins.hpp"
#include "cip/solver.hpp"

using cip::kInf;
using cip::Model;
using cip::Row;
using cip::Solver;
using cip::Status;

namespace {

Model knapsack(const std::vector<double>& value,
               const std::vector<double>& weight, double cap) {
    Model m;
    std::vector<std::pair<int, double>> coefs;
    for (std::size_t j = 0; j < value.size(); ++j) {
        m.addVar(-value[j], 0.0, 1.0, true);
        coefs.emplace_back(static_cast<int>(j), weight[j]);
    }
    m.addLinear(Row(std::move(coefs), -kInf, cap));
    return m;
}

/// Handler that keeps a managed row "x0 + x1 >= 1" active everywhere,
/// turning it into a plain extra constraint — exercises managed-row
/// plumbing end to end.
class AlwaysOnManagedRow : public cip::ConstraintHandler {
public:
    AlwaysOnManagedRow() : ConstraintHandler("managed", 0) {}
    bool check(Solver&, const std::vector<double>& x) override {
        return x[0] + x[1] >= 1.0 - 1e-6;
    }
    int separate(Solver&, const std::vector<double>&) override { return 0; }
    int enforce(Solver&, const std::vector<double>&,
                cip::BranchDecision&) override {
        return 0;
    }
    void nodeActivated(Solver& solver) override {
        if (handle_ < 0)
            handle_ = solver.addManagedRow(
                Row({{0, 1.0}, {1, 1.0}}, 1.0, kInf));
        solver.setManagedRowBounds(handle_, 1.0, kInf);
    }

private:
    int handle_ = -1;
};

}  // namespace

TEST(CipManagedRows, ActiveRowRestrictsOptimum) {
    // Without the managed row, optimum picks items 1 and 3 (13 + 8).
    // Forcing x0 + x1 >= 1 keeps that optimum valid; force a harder row.
    Model m = knapsack({10, 13, 7, 8}, {5, 7, 4, 3}, 10);
    Solver s;
    s.setModel(std::move(m));
    s.addConstraintHandler(std::make_unique<AlwaysOnManagedRow>());
    ASSERT_EQ(s.solve(), Status::Optimal);
    // x1 = 1 in the unconstrained optimum, so the row holds; value 21.
    EXPECT_NEAR(s.incumbent().obj, -21.0, 1e-6);
    EXPECT_GE(s.incumbent().x[0] + s.incumbent().x[1], 1.0 - 1e-6);
}

namespace {

/// Handler forcing x0 + x1 <= 0 via a managed row (both excluded).
class ExcludingManagedRow : public cip::ConstraintHandler {
public:
    ExcludingManagedRow() : ConstraintHandler("excl", 0) {}
    bool check(Solver&, const std::vector<double>& x) override {
        return x[0] + x[1] <= 1e-6;
    }
    int separate(Solver&, const std::vector<double>&) override { return 0; }
    void nodeActivated(Solver& solver) override {
        if (handle_ < 0)
            handle_ = solver.addManagedRow(
                Row({{0, 1.0}, {1, 1.0}}, -kInf, kInf));
        solver.setManagedRowBounds(handle_, -kInf, 0.0);
    }

private:
    int handle_ = -1;
};

}  // namespace

TEST(CipManagedRows, ExclusionChangesOptimum) {
    Model m = knapsack({10, 13, 7, 8}, {5, 7, 4, 3}, 10);
    Solver s;
    s.setModel(std::move(m));
    s.addConstraintHandler(std::make_unique<ExcludingManagedRow>());
    ASSERT_EQ(s.solve(), Status::Optimal);
    // Without items 0 and 1: best is 7 + 8 = 15.
    EXPECT_NEAR(s.incumbent().obj, -15.0, 1e-6);
}

namespace {

/// Separator producing valid but weak cuts each round, to grow the pool and
/// exercise aging + LP rebuilds.
class NoisyCutSeparator : public cip::Separator {
public:
    NoisyCutSeparator() : Separator("noisy", 0) {}
    int separate(Solver& solver, const std::vector<double>& x) override {
        if (rounds_ >= 40) return 0;
        ++rounds_;
        // Globally valid (sum of 0/1 vars <= n) but usually slack rows,
        // slightly tightened around the current point so they enter the LP.
        const int n = solver.model().numVars();
        double sum = 0.0;
        for (double v : x) sum += v;
        std::vector<std::pair<int, double>> coefs;
        for (int j = 0; j < n; ++j) coefs.emplace_back(j, 1.0);
        solver.addCut(Row(std::move(coefs), -kInf, double(n) + rounds_));
        return 1;
    }
    int rounds_ = 0;
};

}  // namespace

TEST(CipCutPool, AgingKeepsSolverCorrect) {
    Model m = knapsack({3, 5, 7, 9, 11, 6, 4}, {2, 3, 4, 5, 6, 3, 2}, 10);
    Solver plain;
    {
        Model copy = m;
        plain.setModel(std::move(copy));
    }
    ASSERT_EQ(plain.solve(), Status::Optimal);

    Solver s;
    s.setModel(std::move(m));
    s.addSeparator(std::make_unique<NoisyCutSeparator>());
    s.params().setInt("separating/maxpoolsize", 5);  // aggressive trimming
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_NEAR(s.incumbent().obj, plain.incumbent().obj, 1e-6);
    EXPECT_GT(s.stats().cutsAdded, 0);
}

namespace {

/// Covering-cut supports, one batch per separation round.
using CoverScript = std::vector<std::vector<std::vector<int>>>;

/// Offers one scripted batch of covering cuts per separation round and
/// counts the admitted ones.
class ScriptedCoverSeparator : public cip::Separator {
public:
    explicit ScriptedCoverSeparator(CoverScript rounds)
        : Separator("scripted", 0), rounds_(std::move(rounds)) {}
    int separate(Solver& solver, const std::vector<double>&) override {
        if (next_ >= rounds_.size()) return 0;
        int added = 0;
        for (const std::vector<int>& vars : rounds_[next_])
            if (solver.addCoveringCut(vars)) ++added;
        ++next_;
        admitted += added;
        return added;
    }
    int admitted = 0;

private:
    CoverScript rounds_;
    std::size_t next_ = 0;
};

}  // namespace

TEST(CipCutPool, OverflowDroppedCoveringCutIsAdmittedAgain) {
    Model m = knapsack({3, 5, 7, 9, 11, 6, 4}, {2, 3, 4, 5, 6, 3, 2}, 10);
    const int y = m.numVars();
    for (int k = 0; k < 4; ++k) m.addVar(1.0 + k, 0.0, 1.0, true);
    m.addLinear(Row({{y, 1.0}, {y + 1, 1.0}}, 1.0, kInf));
    m.addLinear(Row({{y + 2, 1.0}, {y + 3, 1.0}}, 1.0, kInf));
    Solver s;
    s.setModel(std::move(m));
    // Both cuts are offered in every round.
    auto sepa = std::make_unique<ScriptedCoverSeparator>(
        CoverScript(64, {{y, y + 1}, {y + 2, y + 3}}));
    ScriptedCoverSeparator* cover = sepa.get();
    s.addSeparator(std::move(sepa));
    // Room for one of the two cuts: every node entry drops the other one
    // from the LP pool, and with it its support from the index.
    s.params().setInt("separating/maxpoolsize", 1);
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_NEAR(s.incumbent().obj, -19.0 + 1.0 + 3.0, 1e-6);
    EXPECT_GT(s.stats().nodesProcessed, 1);
    EXPECT_GT(s.stats().cutsRetired, 0);
    // Both cuts entered once; every further admission is a dropped cut
    // that was offered again and admitted instead of bouncing off as a
    // duplicate of a row the LP no longer has.
    EXPECT_GT(cover->admitted, 2);
    EXPECT_EQ(s.stats().cutDominatedRejected, 0);
}

TEST(CipCutPool, RetiredRowGivesUpItsSupportId) {
    // Covering vars 0..6 (rows x0 + x1 >= 1 and x5 >= 1 make every scripted
    // cut valid) next to a knapsack whose fractional LP forces a second
    // node, where manageCutPool() sweeps the retired rows.
    Model m;
    for (int j = 0; j < 7; ++j) m.addVar(1.0, 0.0, 1.0, true);
    m.addLinear(Row({{0, 1.0}, {1, 1.0}}, 1.0, kInf));
    m.addLinear(Row({{5, 1.0}}, 1.0, kInf));
    const std::vector<double> value{3, 5, 7, 9, 11, 6, 4};
    const std::vector<double> weight{2, 3, 4, 5, 6, 3, 2};
    std::vector<std::pair<int, double>> knap;
    for (std::size_t k = 0; k < value.size(); ++k)
        knap.emplace_back(m.addVar(-value[k], 0.0, 1.0, true), weight[k]);
    m.addLinear(Row(std::move(knap), -kInf, 10));
    Solver s;
    s.setModel(std::move(m));
    // Round 1 pools {0,1,2}. Round 2: {0,1} retires it and frees its id,
    // which {5,6} takes. Round 3: {5} must retire {5,6}, not the retired
    // {0,1,2} row that once held the same id.
    s.addSeparator(std::make_unique<ScriptedCoverSeparator>(
        CoverScript{{{0, 1, 2}}, {{0, 1}, {5, 6}}, {{5}}}));
    s.params().setReal("separating/tailoffeps", -1.0);
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_NEAR(s.incumbent().obj, 2.0 - 19.0, 1e-6);
    EXPECT_GT(s.stats().nodesProcessed, 1);
    EXPECT_EQ(s.stats().cutDominatedEvicted, 2);
    EXPECT_EQ(s.stats().cutsRetired, 2);
    EXPECT_EQ(s.stats().cutPoolSize, 2);  // {0,1} and {5}
}

TEST(CipLimits, CostLimitStops) {
    Model m = knapsack({3, 5, 7, 9, 11, 6, 4, 8, 2, 9},
                       {2, 3, 4, 5, 6, 3, 2, 4, 1, 5}, 15);
    Solver s;
    s.setModel(std::move(m));
    s.params().setReal("limits/cost", 5.0);
    s.params().setInt("heuristics/freq", 0);
    s.params().setBool("heuristics/diving/enabled", false);
    Status st = s.solve();
    EXPECT_TRUE(st == Status::CostLimit || st == Status::Optimal);
    if (st == Status::CostLimit) {
        EXPECT_GE(s.stats().totalCost, 5);
    }
}

TEST(CipLimits, GapLimitStops) {
    Model m = knapsack({3, 5, 7, 9, 11, 6, 4, 8}, {2, 3, 4, 5, 6, 3, 2, 4},
                       13);
    Solver s;
    s.setModel(std::move(m));
    s.params().setReal("limits/gap", 0.5);  // 50% gap: satisfied quickly
    Status st = s.solve();
    EXPECT_TRUE(st == Status::GapLimit || st == Status::Optimal);
    if (st == Status::GapLimit) {
        EXPECT_LE(s.gap(), 0.5 + 1e-9);
    }
}

TEST(CipNodesel, AllStrategiesReachTheOptimum) {
    for (const char* sel : {"bestbound", "dfs", "estimate"}) {
        Model m = knapsack({3, 5, 7, 9, 11, 6, 4}, {2, 3, 4, 5, 6, 3, 2}, 10);
        Solver s;
        s.setModel(std::move(m));
        s.params().setString("nodeselection", sel);
        ASSERT_EQ(s.solve(), Status::Optimal) << sel;
        EXPECT_NEAR(s.incumbent().obj, -19.0, 1e-6) << sel;
    }
}

TEST(CipBranching, MostFracAndPseudocostAgree) {
    for (const char* rule : {"mostfrac", "pseudocost"}) {
        Model m = knapsack({4, 7, 9, 11, 6, 13}, {3, 5, 6, 7, 4, 8}, 14);
        Solver s;
        s.setModel(std::move(m));
        s.params().setString("branching", rule);
        ASSERT_EQ(s.solve(), Status::Optimal) << rule;
        EXPECT_NEAR(s.incumbent().obj, -22.0, 1e-6) << rule;
    }
}

TEST(CipPropagation, LinearPropagationFixesForcedVars) {
    // x0 + x1 + x2 >= 3 with binaries forces all to 1 in presolve.
    Model m;
    for (int j = 0; j < 3; ++j) m.addVar(1.0, 0.0, 1.0, true);
    m.addLinear(Row({{0, 1.0}, {1, 1.0}, {2, 1.0}}, 3.0, kInf));
    Solver s;
    s.setModel(std::move(m));
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_NEAR(s.incumbent().obj, 3.0, 1e-9);
    EXPECT_EQ(s.stats().nodesProcessed, 1);  // no branching needed
}

TEST(CipPropagation, DetectsInfeasibilityBeforeLp) {
    Model m;
    m.addVar(0.0, 0.0, 1.0, true);
    m.addVar(0.0, 0.0, 1.0, true);
    m.addLinear(Row({{0, 1.0}, {1, 1.0}}, 3.0, kInf));  // max activity 2
    Solver s;
    s.setModel(std::move(m));
    EXPECT_EQ(s.solve(), Status::Infeasible);
    EXPECT_EQ(s.stats().lpIterations, 0);  // caught in presolve
}

TEST(CipObjIntegral, RoundsDualBound) {
    Model m = knapsack({3, 5, 7}, {2, 3, 4}, 5);
    Solver s;
    s.setModel(std::move(m));
    s.params().setBool("misc/objintegral", true);
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_NEAR(s.dualBound(), s.primalBound(), 1e-9);
    EXPECT_NEAR(std::round(s.incumbent().obj), s.incumbent().obj, 1e-9);
}

TEST(CipSolver, PermutationSeedChangesSearchNotResult) {
    double objRef = 0.0;
    std::vector<long long> nodeCounts;
    for (int seed : {0, 1, 2, 3}) {
        Model m = knapsack({4, 7, 9, 11, 6, 13, 5, 8},
                           {3, 5, 6, 7, 4, 8, 3, 5}, 18);
        Solver s;
        s.setModel(std::move(m));
        s.params().setInt("randomization/permutationseed", seed);
        ASSERT_EQ(s.solve(), Status::Optimal);
        if (seed == 0)
            objRef = s.incumbent().obj;
        else
            EXPECT_NEAR(s.incumbent().obj, objRef, 1e-6);
        nodeCounts.push_back(s.stats().nodesProcessed);
    }
    // All runs correct; node counts recorded (may or may not differ).
    EXPECT_EQ(nodeCounts.size(), 4u);
}

TEST(CipWarmStart, ChildNodesReuseParentBasis) {
    // Best-bound search jumps around the tree, so nearly every node LP
    // should start from its parent's snapshot rather than cold.
    Model m = knapsack({3, 5, 7, 9, 11, 6, 4}, {2, 3, 4, 5, 6, 3, 2}, 10);
    Solver warm;
    warm.setModel(Model(m));
    warm.params().setString("nodeselection", "bestbound");
    ASSERT_EQ(warm.solve(), Status::Optimal);
    EXPECT_GT(warm.stats().basisWarmStarts, 0)
        << "no node LP was warm-started from a parent basis";

    // Same search with warm-starts disabled: identical optimum.
    Solver cold;
    cold.setModel(std::move(m));
    cold.params().setString("nodeselection", "bestbound");
    cold.params().setBool("lp/warmstart", false);
    ASSERT_EQ(cold.solve(), Status::Optimal);
    EXPECT_EQ(cold.stats().basisWarmStarts, 0);
    EXPECT_NEAR(warm.incumbent().obj, cold.incumbent().obj, 1e-6);
}

TEST(CipBranching, StrongBranchingProbesAndSolves) {
    Model m = knapsack({4, 7, 9, 11, 6, 13, 5, 8},
                       {3, 5, 6, 7, 4, 8, 3, 5}, 18);
    Solver ref;
    ref.setModel(Model(m));
    ASSERT_EQ(ref.solve(), Status::Optimal);

    Solver s;
    s.setModel(std::move(m));
    s.params().setString("branching", "strong");
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_NEAR(s.incumbent().obj, ref.incumbent().obj, 1e-6);
    EXPECT_GT(s.stats().strongBranchProbes, 0)
        << "strong branching rule never probed a candidate";
}
