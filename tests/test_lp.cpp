#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "lp/model.hpp"
#include "lp/simplex.hpp"

using lp::kInf;
using lp::LpModel;
using lp::Row;
using lp::SimplexSolver;
using lp::SolveStatus;

namespace {

/// Brute-force reference: solve a small LP by enumerating basic solutions of
/// the standard-form system (vertex enumeration over active constraint
/// subsets). Only for tiny dense models with finite optima; used as the
/// property-test oracle.
struct BruteForceResult {
    bool feasible = false;
    double obj = kInf;
};

// Enumerate over all subsets of {rows at lhs/rhs, cols at lb/ub} is too big;
// instead evaluate the LP on a fine grid refined by random restarts of a
// projected coordinate descent. For the oracle we restrict generated models
// to 2 variables so a fine grid is exact enough.
BruteForceResult gridOracle2D(const LpModel& model, double lo, double hi,
                              int steps) {
    BruteForceResult res;
    const double h = (hi - lo) / steps;
    for (int i = 0; i <= steps; ++i) {
        for (int j = 0; j <= steps; ++j) {
            std::vector<double> x{lo + i * h, lo + j * h};
            bool ok = true;
            for (int c = 0; c < model.numCols() && ok; ++c)
                ok = x[c] >= model.col(c).lb - 1e-9 &&
                     x[c] <= model.col(c).ub + 1e-9;
            for (int r = 0; r < model.numRows() && ok; ++r) {
                const double a = model.row(r).activity(x);
                ok = a >= model.row(r).lhs - 1e-9 &&
                     a <= model.row(r).rhs + 1e-9;
            }
            if (!ok) continue;
            double obj = 0.0;
            for (int c = 0; c < model.numCols(); ++c)
                obj += model.col(c).obj * x[c];
            if (!res.feasible || obj < res.obj) {
                res.feasible = true;
                res.obj = obj;
            }
        }
    }
    return res;
}

}  // namespace

TEST(Simplex, SimpleMaximizationAsMinimization) {
    // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0  -> opt at (4,0): 12
    LpModel m;
    m.addCol(-3.0, 0.0, kInf);
    m.addCol(-2.0, 0.0, kInf);
    m.addRow(Row({{0, 1.0}, {1, 1.0}}, -kInf, 4.0));
    m.addRow(Row({{0, 1.0}, {1, 3.0}}, -kInf, 6.0));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -12.0, 1e-8);
    EXPECT_NEAR(s.primal()[0], 4.0, 1e-8);
    EXPECT_NEAR(s.primal()[1], 0.0, 1e-8);
}

TEST(Simplex, EqualityRow) {
    // min x + y s.t. x + y = 2, x - y = 0  -> x = y = 1, obj 2
    LpModel m;
    m.addCol(1.0, -kInf, kInf);
    m.addCol(1.0, -kInf, kInf);
    m.addRow(Row({{0, 1.0}, {1, 1.0}}, 2.0, 2.0));
    m.addRow(Row({{0, 1.0}, {1, -1.0}}, 0.0, 0.0));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), 2.0, 1e-8);
    EXPECT_NEAR(s.primal()[0], 1.0, 1e-8);
    EXPECT_NEAR(s.primal()[1], 1.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
    LpModel m;
    m.addCol(1.0, 0.0, kInf);
    m.addRow(Row({{0, 1.0}}, 3.0, kInf));   // x >= 3
    m.addRow(Row({{0, 1.0}}, -kInf, 2.0));  // x <= 2
    SimplexSolver s;
    s.load(m);
    EXPECT_EQ(s.solve(), SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
    LpModel m;
    m.addCol(-1.0, 0.0, kInf);  // min -x, x >= 0, no upper limit
    m.addRow(Row({{0, 1.0}}, 0.0, kInf));
    SimplexSolver s;
    s.load(m);
    EXPECT_EQ(s.solve(), SolveStatus::Unbounded);
}

TEST(Simplex, RangeRowAndBoundedVars) {
    // min -x - y, 1 <= x + y <= 3, 0 <= x <= 2, 0 <= y <= 2 -> obj -3
    LpModel m;
    m.addCol(-1.0, 0.0, 2.0);
    m.addCol(-1.0, 0.0, 2.0);
    m.addRow(Row({{0, 1.0}, {1, 1.0}}, 1.0, 3.0));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -3.0, 1e-8);
}

TEST(Simplex, NegativeLowerBounds) {
    // min x, -5 <= x <= 5, x >= -3 via row
    LpModel m;
    m.addCol(1.0, -5.0, 5.0);
    m.addRow(Row({{0, 1.0}}, -3.0, kInf));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -3.0, 1e-8);
}

TEST(Simplex, FreeVariable) {
    // min x + 2y, x free, y >= 0, x + y >= 1, x >= -10
    LpModel m;
    m.addCol(1.0, -kInf, kInf);
    m.addCol(2.0, 0.0, kInf);
    m.addRow(Row({{0, 1.0}, {1, 1.0}}, 1.0, kInf));
    m.addRow(Row({{0, 1.0}}, -10.0, kInf));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -10.0 + 2.0 * 11.0 > -10.0 ? -10.0 + 0.0 : 0.0,
                1e+30);  // sanity placeholder, refined below
    // Optimal: push x to -10 requires y >= 11 costing 22; total 12.
    // Better: x = 1, y = 0 -> obj 1. Best: x as small as helpful:
    // d(obj)/dx along x+y=1 is 1-2 = -1 < 0, so x -> -10, y = 11, obj 12?
    // No: obj = x + 2y = x + 2(1-x) = 2 - x for binding row, minimized at
    // x = -10 -> wait, y = 1 - x = 11 >= 0 ok, obj = -10 + 22 = 12.
    // x large instead: y = 0, obj = x >= 1 -> min 1. So optimum is 1? But
    // 2 - x decreases with larger x only until y >= 0 fails at x > 1; at
    // x = 1: obj = 1. For x > 1 row is slack with y = 0, obj = x > 1.
    EXPECT_NEAR(s.objective(), 1.0, 1e-8);
    EXPECT_NEAR(s.primal()[0], 1.0, 1e-8);
}

TEST(Simplex, DualValuesSatisfyStrongDuality) {
    // min c'x with binding constraints; check b'y == c'x (strong duality).
    LpModel m;
    m.addCol(2.0, 0.0, kInf);
    m.addCol(3.0, 0.0, kInf);
    m.addRow(Row({{0, 1.0}, {1, 2.0}}, 4.0, kInf));
    m.addRow(Row({{0, 3.0}, {1, 1.0}}, 6.0, kInf));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    const auto& y = s.duals();
    const double dualObj = 4.0 * y[0] + 6.0 * y[1];
    EXPECT_NEAR(dualObj, s.objective(), 1e-7);
    // Dual feasibility for >= rows of a minimization: y >= 0.
    EXPECT_GE(y[0], -1e-9);
    EXPECT_GE(y[1], -1e-9);
}

TEST(Simplex, ReducedCostsSignCorrect) {
    LpModel m;
    m.addCol(1.0, 0.0, 10.0);
    m.addCol(-1.0, 0.0, 10.0);
    m.addRow(Row({{0, 1.0}, {1, 1.0}}, -kInf, 5.0));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    // x0 at lower bound -> reduced cost >= 0.
    EXPECT_NEAR(s.primal()[0], 0.0, 1e-9);
    EXPECT_GE(s.reducedCosts()[0], -1e-9);
}

TEST(Simplex, WarmRestartAfterAddingCut) {
    // max x + y (min -x-y), x,y in [0,3], x + y <= 5. Then add cut
    // x + y <= 2 and resolve: objective must drop to -2.
    LpModel m;
    m.addCol(-1.0, 0.0, 3.0);
    m.addCol(-1.0, 0.0, 3.0);
    m.addRow(Row({{0, 1.0}, {1, 1.0}}, -kInf, 5.0));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -5.0, 1e-8);
    ASSERT_EQ(s.addRowsAndResolve({Row({{0, 1.0}, {1, 1.0}}, -kInf, 2.0)}),
              SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -2.0, 1e-8);
}

TEST(Simplex, WarmRestartAfterBoundChange) {
    // min -x - 2y, x,y in [0,4], x + y <= 6 -> (2,4), obj -10.
    // Branch y <= 1 -> best (4,1)?? x <= 4, x + y <= 6 -> (4,1), obj -6.
    LpModel m;
    m.addCol(-1.0, 0.0, 4.0);
    m.addCol(-2.0, 0.0, 4.0);
    m.addRow(Row({{0, 1.0}, {1, 1.0}}, -kInf, 6.0));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -10.0, 1e-8);
    s.changeBounds(1, 0.0, 1.0);
    ASSERT_EQ(s.resolve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -6.0, 1e-8);
    // And tighten further to an infeasible box: x >= 5 impossible.
    s.changeBounds(0, 5.0, 4.0);
    EXPECT_EQ(s.resolve(), SolveStatus::Infeasible);
}

TEST(Simplex, ManySequentialCuts) {
    // min -x - y with x,y in [0, 10]; repeatedly add x + y <= k cuts for
    // decreasing k; each resolve must track the new optimum exactly.
    LpModel m;
    m.addCol(-1.0, 0.0, 10.0);
    m.addCol(-1.0, 0.0, 10.0);
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -20.0, 1e-8);
    for (int k = 15; k >= 1; k -= 2) {
        ASSERT_EQ(
            s.addRowsAndResolve({Row({{0, 1.0}, {1, 1.0}}, -kInf, double(k))}),
            SolveStatus::Optimal)
            << "cut k=" << k;
        EXPECT_NEAR(s.objective(), -double(k), 1e-7) << "cut k=" << k;
    }
}

TEST(Simplex, DegenerateLpTerminates) {
    // Highly degenerate: many redundant rows through the same vertex.
    LpModel m;
    m.addCol(-1.0, 0.0, kInf);
    m.addCol(-1.0, 0.0, kInf);
    for (int k = 1; k <= 12; ++k)
        m.addRow(Row({{0, double(k)}, {1, double(k)}}, -kInf, 2.0 * k));
    SimplexSolver s;
    s.load(m);
    ASSERT_EQ(s.solve(), SolveStatus::Optimal);
    EXPECT_NEAR(s.objective(), -2.0, 1e-8);
}

// Property test: random 2-variable LPs checked against a fine grid oracle.
class SimplexRandom2D : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandom2D, MatchesGridOracle) {
    std::mt19937 rng(GetParam());
    std::uniform_real_distribution<double> coef(-3.0, 3.0);
    std::uniform_int_distribution<int> nrows(1, 6);
    for (int rep = 0; rep < 20; ++rep) {
        LpModel m;
        // Bounded box keeps the LP bounded so the oracle grid is valid.
        m.addCol(coef(rng), -4.0, 4.0);
        m.addCol(coef(rng), -4.0, 4.0);
        const int rows = nrows(rng);
        for (int r = 0; r < rows; ++r) {
            double a = coef(rng), b = coef(rng);
            double rhs = coef(rng) * 2.0;
            m.addRow(Row({{0, a}, {1, b}}, -kInf, rhs));
        }
        SimplexSolver s;
        s.load(m);
        SolveStatus st = s.solve();
        BruteForceResult oracle = gridOracle2D(m, -4.0, 4.0, 200);
        if (st == SolveStatus::Optimal) {
            // Solver's point must itself be feasible.
            const auto& x = s.primal();
            for (int r = 0; r < m.numRows(); ++r) {
                EXPECT_LE(m.row(r).activity(x), m.row(r).rhs + 1e-6);
            }
            if (oracle.feasible) {
                // Grid resolution limits the oracle's accuracy: the solver
                // may beat the grid slightly, never lose to it by much.
                EXPECT_LE(s.objective(), oracle.obj + 1e-6);
                EXPECT_GE(s.objective(), oracle.obj - 0.35);
            }
        } else if (st == SolveStatus::Infeasible) {
            // A feasible grid point would disprove infeasibility (the grid
            // can miss thin slivers, so the converse is not checked).
            EXPECT_FALSE(oracle.feasible);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandom2D,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property test: warm-started resolve after bound changes must match a cold
// solve of the same modified model.
class SimplexWarmVsCold : public ::testing::TestWithParam<int> {};

TEST_P(SimplexWarmVsCold, BoundChangeEquivalence) {
    std::mt19937 rng(1000 + GetParam());
    std::uniform_real_distribution<double> coef(-2.0, 2.0);
    for (int rep = 0; rep < 10; ++rep) {
        const int n = 4, rows = 5;
        LpModel m;
        for (int j = 0; j < n; ++j) m.addCol(coef(rng), 0.0, 5.0);
        for (int r = 0; r < rows; ++r) {
            std::vector<std::pair<int, double>> cs;
            for (int j = 0; j < n; ++j) cs.emplace_back(j, coef(rng));
            m.addRow(Row(std::move(cs), -6.0, 6.0));
        }
        SimplexSolver warm;
        warm.load(m);
        ASSERT_EQ(warm.solve(), SolveStatus::Optimal);

        // Apply a random branching-style bound change.
        std::uniform_int_distribution<int> pick(0, n - 1);
        const int j = pick(rng);
        const double newUb = 2.0;
        warm.changeBounds(j, 0.0, newUb);
        SolveStatus wst = warm.resolve();

        LpModel m2 = m;
        m2.col(j).ub = newUb;
        SimplexSolver cold;
        cold.load(m2);
        SolveStatus cst = cold.solve();

        ASSERT_EQ(wst, cst);
        if (wst == SolveStatus::Optimal) {
            EXPECT_NEAR(warm.objective(), cold.objective(), 1e-6);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexWarmVsCold,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// Property test: adding random valid cuts (satisfied by the current optimum
// or not) and resolving warm must equal a cold solve with those rows.
class SimplexCutVsCold : public ::testing::TestWithParam<int> {};

TEST_P(SimplexCutVsCold, RowAdditionEquivalence) {
    std::mt19937 rng(2000 + GetParam());
    std::uniform_real_distribution<double> coef(-2.0, 2.0);
    for (int rep = 0; rep < 10; ++rep) {
        const int n = 3;
        LpModel m;
        for (int j = 0; j < n; ++j) m.addCol(coef(rng), -3.0, 3.0);
        for (int r = 0; r < 3; ++r) {
            std::vector<std::pair<int, double>> cs;
            for (int j = 0; j < n; ++j) cs.emplace_back(j, coef(rng));
            m.addRow(Row(std::move(cs), -5.0, 5.0));
        }
        SimplexSolver warm;
        warm.load(m);
        ASSERT_EQ(warm.solve(), SolveStatus::Optimal);

        std::vector<Row> cuts;
        for (int k = 0; k < 2; ++k) {
            std::vector<std::pair<int, double>> cs;
            for (int j = 0; j < n; ++j) cs.emplace_back(j, coef(rng));
            cuts.push_back(Row(std::move(cs), -4.0, 4.0));
        }
        SolveStatus wst = warm.addRowsAndResolve(cuts);

        LpModel m2 = m;
        for (const Row& c : cuts) m2.addRow(c);
        SimplexSolver cold;
        cold.load(m2);
        SolveStatus cst = cold.solve();

        ASSERT_EQ(wst, cst);
        if (wst == SolveStatus::Optimal) {
            EXPECT_NEAR(warm.objective(), cold.objective(), 1e-6);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexCutVsCold,
                         ::testing::Values(1, 2, 3, 4, 5, 6));
