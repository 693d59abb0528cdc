// Second LP test pass: row-bound changes (the managed-row mechanism),
// iteration limits, duals on equality and range rows, degenerate
// plateau handling, anti-cycling, refactorization drift and basis
// snapshot/restore.
#include <gtest/gtest.h>

#include <random>

#include "lp/dense_simplex.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"

using lp::kInf;
using lp::LpModel;
using lp::Row;
using lp::SimplexSolver;
using lp::SolveStatus;

TEST(SimplexRows, ChangeRowBoundsActsLikeManagedRow) {
    // max x+y in [0,5]^2 with an initially inactive row x + y <= ?.
    LpModel m;
    m.addCol(-1.0, 0.0, 5.0);
    m.addCol(-1.0, 0.0, 5.0);
    m.addRow(Row({{0, 1.0}, {1, 1.0}}, -kInf, kInf));  // free row
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -10.0, 1e-8);
    // Activate the row.
    s.changeRowBounds(0, -kInf, 4.0);
    ASSERT_EQ(s.resolve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -4.0, 1e-8);
    // Deactivate again.
    s.changeRowBounds(0, -kInf, kInf);
    ASSERT_EQ(s.resolve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -10.0, 1e-8);
    // Tighten to equality.
    s.changeRowBounds(0, 2.0, 2.0);
    ASSERT_EQ(s.resolve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -2.0, 1e-8);
}

TEST(SimplexRows, RowBoundsCanMakeLpInfeasible) {
    LpModel m;
    m.addCol(1.0, 0.0, 1.0);
    m.addRow(Row({{0, 1.0}}, -kInf, kInf));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    s.changeRowBounds(0, 5.0, kInf);  // x >= 5 with x <= 1
    EXPECT_EQ(s.resolve(), SolveStatus::Infeasible);
    // And recover.
    s.changeRowBounds(0, -kInf, kInf);
    EXPECT_EQ(s.resolve(), SolveStatus::Optimal);
}

TEST(SimplexLimits, IterLimitReported) {
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> coef(-1.0, 1.0);
    LpModel m;
    const int n = 30;
    for (int j = 0; j < n; ++j) m.addCol(coef(rng), 0.0, 2.0);
    for (int i = 0; i < 30; ++i) {
        std::vector<std::pair<int, double>> cs;
        for (int j = 0; j < n; ++j) cs.emplace_back(j, coef(rng));
        m.addRow(Row(std::move(cs), -3.0, 3.0));
    }
    SimplexSolver s;
    s.load(m);
    s.setIterLimit(3);
    SolveStatus st = s.solve();
    EXPECT_TRUE(st == SolveStatus::IterLimit || st == SolveStatus::Optimal);
}

TEST(SimplexDuals, EqualityRowDualMatchesShadowPrice) {
    // min x + 3y s.t. x + y = 4, x <= 3 -> x=3,y=1, obj 6.
    // Shadow price of the equality: d(obj)/d(rhs) = 3 (y absorbs changes).
    LpModel m;
    m.addCol(1.0, 0.0, 3.0);
    m.addCol(3.0, 0.0, kInf);
    m.addRow(Row({{0, 1.0}, {1, 1.0}}, 4.0, 4.0));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), 6.0, 1e-8);
    EXPECT_NEAR(s.duals()[0], 3.0, 1e-7);
}

TEST(SimplexDuals, StrongDualityOnRangeRows) {
    std::mt19937 rng(11);
    std::uniform_real_distribution<double> coef(-2.0, 2.0);
    for (int rep = 0; rep < 8; ++rep) {
        LpModel m;
        const int n = 5;
        for (int j = 0; j < n; ++j) m.addCol(coef(rng), -1.0, 2.0);
        for (int i = 0; i < 4; ++i) {
            std::vector<std::pair<int, double>> cs;
            for (int j = 0; j < n; ++j) cs.emplace_back(j, coef(rng));
            m.addRow(Row(std::move(cs), -3.0, 3.0));
        }
        SimplexSolver s;
        s.load(m);
        if (s.solve() != SolveStatus::Optimal) continue;
        // Lagrangian check: obj == sum_i y_i * activity_i + sum_j rc_j x_j
        // with activity at the binding side (complementary slackness).
        const auto& x = s.primal();
        const auto& y = s.duals();
        const auto& rc = s.reducedCosts();
        double lag = 0.0;
        for (int i = 0; i < m.numRows(); ++i)
            lag += y[i] * m.row(i).activity(x);
        for (int j = 0; j < n; ++j) lag += rc[j] * x[j];
        EXPECT_NEAR(lag, s.objective(), 1e-6) << "rep " << rep;
    }
}

TEST(SimplexAntiCycling, BealeCyclingLpTerminates) {
    // Beale's classic cycling example: textbook Dantzig pricing with a naive
    // ratio test cycles forever on this LP. The stall detector must switch
    // to Bland's rule and reach the optimum (-1/20) in finitely many steps.
    LpModel m;
    m.addCol(-0.75, 0.0, kInf);
    m.addCol(150.0, 0.0, kInf);
    m.addCol(-0.02, 0.0, kInf);
    m.addCol(6.0, 0.0, kInf);
    m.addRow(Row({{0, 0.25}, {1, -60.0}, {2, -0.04}, {3, 9.0}}, -kInf, 0.0));
    m.addRow(Row({{0, 0.5}, {1, -90.0}, {2, -0.02}, {3, 3.0}}, -kInf, 0.0));
    m.addRow(Row({{2, 1.0}}, -kInf, 1.0));
    SimplexSolver s;
    s.load(m);
    s.setIterLimit(10000);  // cycling would exhaust this
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -0.05, 1e-8);
    EXPECT_LT(s.iterations(), 10000);
}

TEST(SimplexRefactor, EtaGrowthTriggersRefactorization) {
    // A long chain of bound-change reoptimizations accumulates FT updates;
    // the fill budget / residual backstop must refactorize along the way and
    // the final answer must match a cold solve of the same bounds.
    std::mt19937 rng(17);
    std::uniform_real_distribution<double> coef(-1.0, 1.0);
    LpModel m;
    const int n = 20;
    for (int j = 0; j < n; ++j) m.addCol(coef(rng), 0.0, 4.0);
    for (int i = 0; i < 15; ++i) {
        std::vector<std::pair<int, double>> cs;
        for (int j = 0; j < n; ++j)
            if ((i + j) % 3 == 0) cs.emplace_back(j, coef(rng));
        if (cs.empty()) cs.emplace_back(i % n, 1.0);
        m.addRow(Row(std::move(cs), -4.0, 4.0));
    }
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    const long factAfterFirst = s.factorizations();
    const long itersAfterFirst = s.iterations();
    // Alternate every column's upper bound each round; each resolve has to
    // pivot, steadily growing the factor past its fill budget.
    const int rounds = 40;
    for (int round = 0; round < rounds; ++round) {
        for (int j = 0; j < n; ++j)
            s.changeBounds(j, 0.0, (round + j) % 2 ? 1.0 : 4.0);
        ASSERT_EQ(s.resolve(), SolveStatus::Optimal) << "round " << round;
    }
    ASSERT_GT(s.iterations(), itersAfterFirst);  // the flips did pivot
    EXPECT_GT(s.factorizations(), factAfterFirst)
        << rounds << " reoptimizations never refactorized: drift unchecked";
    // Cold-solve the final bound state for comparison.
    SimplexSolver cold;
    cold.load(m);
    for (int j = 0; j < n; ++j)
        cold.changeBounds(j, 0.0, (rounds - 1 + j) % 2 ? 1.0 : 4.0);
    ASSERT_EQ(cold.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), cold.objective(), 1e-6);
}

TEST(SimplexBasis, SaveRestoreRoundtrip) {
    std::mt19937 rng(23);
    std::uniform_real_distribution<double> coef(-1.0, 1.0);
    LpModel m;
    const int n = 12;
    for (int j = 0; j < n; ++j) m.addCol(coef(rng), 0.0, 3.0);
    for (int i = 0; i < 8; ++i) {
        std::vector<std::pair<int, double>> cs;
        for (int j = 0; j < n; ++j) cs.emplace_back(j, coef(rng));
        m.addRow(Row(std::move(cs), -2.0, 2.0));
    }
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    const double optObj = s.objective();
    lp::Basis snap = s.basis();
    ASSERT_TRUE(snap.valid());

    // Wander off: tighten bounds, reoptimize somewhere else.
    s.changeBounds(0, 0.0, 0.5);
    s.changeBounds(1, 1.0, 3.0);
    ASSERT_EQ(s.resolve(), SolveStatus::Optimal);

    // Restore bounds + basis: the old optimum must be reproduced with few
    // (ideally zero) pivots since the loaded basis is already optimal.
    s.changeBounds(0, 0.0, 3.0);
    s.changeBounds(1, 0.0, 3.0);
    ASSERT_TRUE(s.loadBasis(snap));
    const long before = s.iterations();
    ASSERT_EQ(s.resolve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), optObj, 1e-7);
    EXPECT_LE(s.iterations() - before, 5);
}

TEST(SimplexBasis, LoadBasisAdaptsToRowsAddedSinceSnapshot) {
    LpModel m;
    m.addCol(-1.0, 0.0, 4.0);
    m.addCol(-1.0, 0.0, 4.0);
    m.addRow(Row({{0, 1.0}, {1, 1.0}}, -kInf, 6.0));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    lp::Basis snap = s.basis();  // 2 cols + 1 row

    // Add a cut, then load the pre-cut snapshot: the new row's slack must be
    // patched in as basic and the resolve must honor the cut.
    ASSERT_EQ(s.addRowsAndResolve({Row({{0, 1.0}}, -kInf, 1.0)}),
              SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -5.0, 1e-8);
    ASSERT_TRUE(s.loadBasis(snap));
    ASSERT_EQ(s.resolve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -5.0, 1e-8);

    // A snapshot from a solver with a different column count must be
    // rejected (caller then cold-starts).
    lp::Basis wrong;
    wrong.cols = 7;
    wrong.rows = 1;
    wrong.status.assign(8, lp::VarStatus::AtLower);
    EXPECT_FALSE(s.loadBasis(wrong));
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -5.0, 1e-8);
}

TEST(SparseVsDense, RandomLpObjectivesAgree) {
    // The sparse engine must reproduce the retired dense engine's optima.
    std::mt19937 rng(31);
    std::uniform_real_distribution<double> coef(-2.0, 2.0);
    int compared = 0;
    for (int rep = 0; rep < 20; ++rep) {
        LpModel m;
        const int n = 4 + rep % 7;
        for (int j = 0; j < n; ++j) m.addCol(coef(rng), -1.0, 2.0);
        const int rows = 3 + rep % 5;
        for (int i = 0; i < rows; ++i) {
            std::vector<std::pair<int, double>> cs;
            for (int j = 0; j < n; ++j)
                if ((i + j + rep) % 2 == 0) cs.emplace_back(j, coef(rng));
            if (cs.empty()) cs.emplace_back(0, 1.0);
            m.addRow(Row(std::move(cs), -3.0, 3.0));
        }
        SimplexSolver sparse;
        lp::DenseSimplexSolver dense;
        sparse.load(m);
        dense.load(m);
        SolveStatus a = sparse.solve();
        SolveStatus b = dense.solve();
        ASSERT_EQ(a, b) << "rep " << rep;
        if (a == SolveStatus::Optimal) {
            EXPECT_NEAR(sparse.objective(), dense.objective(), 1e-6)
                << "rep " << rep;
            ++compared;
        }
    }
    EXPECT_GT(compared, 10);
}

TEST(SimplexDegeneracy, ManyIdenticalRowsStillFast) {
    // A heavily degenerate LP (many duplicate constraints through one
    // vertex); the anti-degeneracy machinery must terminate quickly.
    LpModel m;
    m.addCol(-1.0, 0.0, kInf);
    m.addCol(-2.0, 0.0, kInf);
    for (int k = 0; k < 40; ++k)
        m.addRow(Row({{0, 1.0}, {1, 1.0}}, -kInf, 3.0));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -6.0, 1e-8);
    EXPECT_LT(s.iterations(), 2000);
}
