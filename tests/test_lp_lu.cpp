// Tests for the sparse LU basis factorization (lp/lu.hpp): kernel-level
// FTRAN/BTRAN round trips and Forrest–Tomlin update correctness against
// fresh factorizations, plus engine-level agreement between the LU and
// dense simplex implementations and the singular-basis repair path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "lp/dense_simplex.hpp"
#include "lp/lu.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"

using lp::Basis;
using lp::DenseSimplexSolver;
using lp::kInf;
using lp::LpModel;
using lp::LuFactor;
using lp::Row;
using lp::SimplexSolver;
using lp::SolveStatus;
using lp::VarStatus;

namespace {

/// The bench suite's Steiner-cut-shaped LP: 0/1 edge columns with positive
/// costs and sparse ">= 1" cut rows.
LpModel steinerCutLp(int n, int rows, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> cost(0.5, 2.0);
    std::uniform_int_distribution<int> nnz(4, 8);
    std::uniform_int_distribution<int> col(0, n - 1);
    LpModel m;
    for (int j = 0; j < n; ++j) m.addCol(cost(rng), 0.0, 1.0);
    for (int i = 0; i < rows; ++i) {
        std::vector<std::pair<int, double>> cs;
        int k = nnz(rng);
        for (int t = 0; t < k; ++t) cs.emplace_back(col(rng), 1.0);
        cs.emplace_back(i % n, 1.0);
        std::sort(cs.begin(), cs.end());
        cs.erase(std::unique(cs.begin(), cs.end(),
                             [](auto& a, auto& b) { return a.first == b.first; }),
                 cs.end());
        m.addRow(Row(std::move(cs), 1.0, kInf));
    }
    return m;
}

LpModel randomBoxLp(int n, int rows, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> coef(-2.0, 2.0);
    LpModel m;
    for (int j = 0; j < n; ++j) m.addCol(coef(rng), 0.0, 3.0);
    for (int i = 0; i < rows; ++i) {
        std::vector<std::pair<int, double>> cs;
        for (int j = 0; j < n; ++j) cs.emplace_back(j, coef(rng));
        m.addRow(Row(std::move(cs), -5.0, 5.0));
    }
    return m;
}

/// Column-wise sparse matrix with `cols` columns over m rows. Column j
/// carries a dominant entry (strength 3 + u) on row j % m plus a few small
/// off-diagonal entries, so any basic set {j : j % m covers each row once}
/// is strictly column-diagonally-dominant, hence nonsingular.
struct Csc {
    int m = 0;
    std::vector<int> ptr, row;
    std::vector<double> val;
};

Csc makeDominantCsc(int m, int cols, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_int_distribution<int> anyRow(0, m - 1);
    Csc a;
    a.m = m;
    a.ptr.push_back(0);
    for (int j = 0; j < cols; ++j) {
        const int diag = j % m;
        std::vector<std::pair<int, double>> es;
        es.emplace_back(diag, 3.0 + u(rng));
        const int extra = std::min(m - 1, 1 + static_cast<int>(u(rng) * 3));
        for (int t = 0; t < extra; ++t) {
            const int r = anyRow(rng);
            if (r == diag) continue;
            es.emplace_back(r, 2.0 * u(rng) - 1.0);
        }
        std::sort(es.begin(), es.end());
        es.erase(std::unique(es.begin(), es.end(),
                             [](auto& x, auto& y) { return x.first == y.first; }),
                 es.end());
        for (const auto& [r, v] : es) {
            a.row.push_back(r);
            a.val.push_back(v);
        }
        a.ptr.push_back(static_cast<int>(a.row.size()));
    }
    return a;
}

/// b[r] = sum over rows of (column basicAtRow[rowIdx]) * x[rowIdx]: the
/// residual oracle for ftran (x[r] is the coefficient of the column basic
/// in row r).
std::vector<double> applyBasis(const Csc& a, const std::vector<int>& basicAtRow,
                               const std::vector<double>& x) {
    std::vector<double> b(a.m, 0.0);
    for (int r = 0; r < a.m; ++r) {
        const int j = basicAtRow[r];
        for (int p = a.ptr[j]; p < a.ptr[j + 1]; ++p)
            b[a.row[p]] += a.val[p] * x[r];
    }
    return b;
}

double infNormDiff(const std::vector<double>& a, const std::vector<double>& b) {
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        d = std::max(d, std::fabs(a[i] - b[i]));
    return d;
}

/// Factorize the basic set and return the row -> column assignment
/// (basicAtRow), mirroring what SimplexSolver::refactorize does with
/// rowOfSlot.
bool factorizeBasis(LuFactor& f, const Csc& a, const std::vector<int>& basic,
                    std::vector<int>& basicAtRow) {
    std::vector<int> rowOfSlot;
    if (!f.factorize(basic, a.ptr, a.row, a.val, rowOfSlot)) return false;
    basicAtRow.assign(a.m, -1);
    for (int s = 0; s < a.m; ++s) basicAtRow[rowOfSlot[s]] = basic[s];
    return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Kernel-level property tests on LuFactor directly
// ---------------------------------------------------------------------------

TEST(LuFactorProperty, FtranBtranRoundTrip) {
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> u(-2.0, 2.0);
    for (int m : {3, 8, 25, 60}) {
        for (unsigned seed = 0; seed < 8; ++seed) {
            const Csc a = makeDominantCsc(m, m, 100 * m + seed);
            std::vector<int> basic(m);
            for (int j = 0; j < m; ++j) basic[j] = j;
            LuFactor f;
            std::vector<int> basicAtRow;
            ASSERT_TRUE(factorizeBasis(f, a, basic, basicAtRow));

            // FTRAN: x = B^{-1} b, check B x == b.
            std::vector<double> b(m), x;
            for (double& v : b) v = u(rng);
            x = b;
            f.ftran(x);
            EXPECT_LT(infNormDiff(applyBasis(a, basicAtRow, x), b), 1e-9)
                << "m=" << m << " seed=" << seed;

            // BTRAN: y = B^{-T} c, check (B^T y)[r] = dot(col basicAtRow[r],
            // y) == c[r].
            std::vector<double> c(m), y;
            for (double& v : c) v = u(rng);
            y = c;
            f.btran(y);
            for (int r = 0; r < m; ++r) {
                const int j = basicAtRow[r];
                double dot = 0.0;
                for (int p = a.ptr[j]; p < a.ptr[j + 1]; ++p)
                    dot += a.val[p] * y[a.row[p]];
                EXPECT_NEAR(dot, c[r], 1e-9) << "m=" << m << " seed=" << seed;
            }
        }
    }
}

TEST(LuFactorProperty, ForrestTomlinUpdatesMatchFreshFactorization) {
    std::mt19937 rng(11);
    std::uniform_real_distribution<double> u(-2.0, 2.0);
    for (int m : {6, 20, 50}) {
        // 3m columns: the basic set starts as the first m and is repeatedly
        // updated with spare columns whose dominant row matches the slot
        // they enter, keeping the basis nonsingular by construction.
        const Csc a = makeDominantCsc(m, 3 * m, 13 * m + 1);
        std::vector<int> basic(m);
        for (int j = 0; j < m; ++j) basic[j] = j;
        LuFactor f;
        std::vector<int> basicAtRow;
        ASSERT_TRUE(factorizeBasis(f, a, basic, basicAtRow));

        std::uniform_int_distribution<int> anySpare(m, 3 * m - 1);
        int applied = 0;
        for (int step = 0; step < 4 * m; ++step) {
            const int q = anySpare(rng);
            const int leaveRow = q % m;  // q's dominant row
            if (basicAtRow[leaveRow] == q) continue;
            // Spike solve, exactly as the simplex layer does it.
            std::vector<double> w(m, 0.0);
            for (int p = a.ptr[q]; p < a.ptr[q + 1]; ++p)
                w[a.row[p]] = a.val[p];
            f.ftranSpike(w);
            if (!f.update(leaveRow)) {
                // Numerically refused pivot: the factor invalidates itself
                // and the caller refactorizes. Do the same here.
                EXPECT_FALSE(f.valid());
                ASSERT_TRUE(factorizeBasis(f, a, basic, basicAtRow));
                continue;
            }
            basicAtRow[leaveRow] = q;
            ++applied;

            // The updated factor must keep solving the *current* basis.
            std::vector<double> b(m), x;
            for (double& v : b) v = u(rng);
            x = b;
            f.ftran(x);
            EXPECT_LT(infNormDiff(applyBasis(a, basicAtRow, x), b), 1e-7)
                << "m=" << m << " step=" << step;

            // Drift check vs a fresh factorization of the same basis: the
            // chained Forrest–Tomlin factor and the fresh factor must agree
            // on the solution itself.
            if (step % 7 == 0) {
                std::vector<int> curBasic(m);
                for (int r = 0; r < m; ++r) curBasic[r] = basicAtRow[r];
                LuFactor fresh;
                std::vector<int> freshAtRow;
                ASSERT_TRUE(factorizeBasis(fresh, a, curBasic, freshAtRow));
                std::vector<double> xf(m);
                // fresh row assignment may differ; compare by column.
                std::vector<double> xr = b;
                fresh.ftran(xr);
                std::vector<double> byColChained(3 * m, 0.0),
                    byColFresh(3 * m, 0.0);
                for (int r = 0; r < m; ++r) {
                    byColChained[basicAtRow[r]] = x[r];
                    byColFresh[freshAtRow[r]] = xr[r];
                }
                EXPECT_LT(infNormDiff(byColChained, byColFresh), 1e-7)
                    << "m=" << m << " step=" << step;
            }
        }
        EXPECT_GT(applied, m) << "update coverage too thin for m=" << m;
        EXPECT_GT(f.updates(), 0);
    }
}

// ---------------------------------------------------------------------------
// Engine-level agreement: LU vs dense
// ---------------------------------------------------------------------------

TEST(LuDenseAgreement, ColdSolves) {
    for (unsigned seed = 1; seed <= 5; ++seed) {
        for (bool steiner : {false, true}) {
            LpModel m = steiner ? steinerCutLp(40, 40, seed)
                                : randomBoxLp(25, 25, seed);
            SimplexSolver lu;
            lu.load(m);
            DenseSimplexSolver dense;
            dense.load(m);
            ASSERT_EQ(lu.solve(), SolveStatus::Optimal)
                << "seed=" << seed << " steiner=" << steiner;
            ASSERT_EQ(dense.solve(), SolveStatus::Optimal);
            EXPECT_NEAR(lu.objective(), dense.objective(), 1e-6);
        }
    }
}

TEST(LuDenseAgreement, WarmResolveChain) {
    // Branching-style warm chain: exclude an edge, resolve, re-admit,
    // resolve — both engines must report identical objectives at every
    // step (this is the bench loop's correctness half).
    const int n = 60;
    LpModel m = steinerCutLp(n, n, 11);
    SimplexSolver lu;
    lu.load(m);
    DenseSimplexSolver dense;
    dense.load(m);
    ASSERT_EQ(lu.solve(), SolveStatus::Optimal);
    ASSERT_EQ(dense.solve(), SolveStatus::Optimal);
    int j = 0;
    bool down = true;
    for (int it = 0; it < 200; ++it) {
        const double ub = down ? 0.0 : 1.0;
        lu.changeBounds(j, 0.0, ub);
        dense.changeBounds(j, 0.0, ub);
        ASSERT_EQ(lu.resolve(), SolveStatus::Optimal) << "it=" << it;
        ASSERT_EQ(dense.resolve(), SolveStatus::Optimal) << "it=" << it;
        ASSERT_NEAR(lu.objective(), dense.objective(), 1e-6) << "it=" << it;
        if (!down) j = (j + 7) % n;
        down = !down;
    }
    EXPECT_GT(lu.factorizations(), 1);
}

// ---------------------------------------------------------------------------
// Singular / near-singular basis repair
// ---------------------------------------------------------------------------

namespace {

/// LP whose columns 0 and 1 are (near-)identical: a Basis snapshot naming
/// both of them basic implies a singular basis matrix.
LpModel duplicateColumnLp(double perturb) {
    LpModel m;
    m.addCol(1.0, 0.0, 4.0);   // col 0
    m.addCol(1.5, 0.0, 4.0);   // col 1 == col 0 (up to `perturb`)
    m.addCol(2.0, 0.0, 4.0);   // col 2, independent
    m.addRow(Row({{0, 1.0}, {1, 1.0 + perturb}, {2, 1.0}}, 2.0, kInf));
    m.addRow(Row({{0, 1.0}, {1, 1.0}, {2, -1.0}}, 1.0, kInf));
    return m;
}

Basis duplicateColumnBasis() {
    Basis b;
    b.cols = 3;
    b.rows = 2;
    b.status = {VarStatus::Basic, VarStatus::Basic, VarStatus::AtLower,
                VarStatus::AtLower, VarStatus::AtLower};
    return b;
}

}  // namespace

TEST(SingularBasisRepair, LuHealsDuplicateColumnBasis) {
    for (double perturb : {0.0, 1e-14}) {
        LpModel m = duplicateColumnLp(perturb);
        SimplexSolver cold;
        cold.load(m);
        ASSERT_EQ(cold.solve(), SolveStatus::Optimal);
        const double ref = cold.objective();

        SimplexSolver s;
            s.load(m);
        // The LU path repairs the singular basis in place (unpivotable
        // slots are filled with slacks of uncovered rows), so the snapshot
        // loads and the subsequent resolve reaches the optimum.
        EXPECT_TRUE(s.loadBasis(duplicateColumnBasis()))
            << "perturb=" << perturb;
        ASSERT_EQ(s.resolve(), SolveStatus::Optimal);
        EXPECT_NEAR(s.objective(), ref, 1e-8) << "perturb=" << perturb;
    }
}

TEST(SingularBasisRepair, RepairedWarmChainKeepsSolving) {
    // After a repair the solver must remain usable for further warm
    // resolves (the factor policy state is reset correctly).
    LpModel m = duplicateColumnLp(0.0);
    SimplexSolver s;
    s.load(m);
    ASSERT_TRUE(s.loadBasis(duplicateColumnBasis()));
    ASSERT_EQ(s.resolve(), SolveStatus::Optimal);
    DenseSimplexSolver dense;
    dense.load(m);
    ASSERT_EQ(dense.solve(), SolveStatus::Optimal);
    for (int it = 0; it < 6; ++it) {
        const double ub = (it % 2 == 0) ? 0.0 : 4.0;
        s.changeBounds(it % 3, 0.0, ub);
        dense.changeBounds(it % 3, 0.0, ub);
        ASSERT_EQ(s.resolve(), SolveStatus::Optimal);
        ASSERT_EQ(dense.resolve(), SolveStatus::Optimal);
        ASSERT_NEAR(s.objective(), dense.objective(), 1e-7) << "it=" << it;
    }
}
