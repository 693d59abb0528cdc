// Tests for the sparse LU basis factorization (lp/lu.hpp): kernel-level
// FTRAN/BTRAN round trips and Forrest–Tomlin update correctness against
// fresh factorizations, plus engine-level agreement between the LU and
// dense simplex implementations and the singular-basis repair path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <string>
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

// ---------------------------------------------------------------------------
// Exact-output pin of the factorization: pivot rows and slots, pivot
// values, L ops and U rows of four bases, printed as hexfloat and compared
// as text with what the earlier (eager column rebuild) factorization
// produced. Any change to a pivot choice, a value or a storage order fails.
// ---------------------------------------------------------------------------

namespace lp {

/// Read-only access to the stored factor (friend of LuFactor).
struct LuFactorPeek {
    static std::string describe(const LuFactor& f, bool ok,
                                const std::vector<int>& rowOfSlot) {
        std::string out = ok ? "ok\nslots" : "singular\nslots";
        char buf[64];
        for (int r : rowOfSlot) {
            std::snprintf(buf, sizeof buf, " %d", r);
            out += buf;
        }
        out += "\n";
        if (ok) {
            // After factorize(), id k is pivot step k.
            for (int k = 0; k < f.m_; ++k) {
                std::snprintf(buf, sizeof buf, "u%d r%d %a:", k, f.rowOfId_[k],
                              f.Udiag_[k]);
                out += buf;
                for (const auto& e : f.Urow_[k]) {
                    std::snprintf(buf, sizeof buf, " %d=%a", e.id, e.val);
                    out += buf;
                }
                out += "\n";
            }
        }
        for (std::size_t e = 0; e < f.lPiv_.size(); ++e) {
            std::snprintf(buf, sizeof buf, "l%zu r%d:", e, f.lPiv_[e]);
            out += buf;
            for (std::size_t q = f.lStart_[e]; q < f.lStart_[e + 1]; ++q) {
                std::snprintf(buf, sizeof buf, " %d=%a", f.lRow_[q],
                              f.lVal_[q]);
                out += buf;
            }
            out += "\n";
        }
        return out;
    }
};

}  // namespace lp

namespace {

/// m 0/1 edge columns and m -1 slacks over m rows. Edge column j holds row
/// j (j < 3m/4) and 3-6 random cut rows; `tiny` of the other entries are
/// replaced by values at or below kLuDropTol (an explicit zero among them).
Csc steinerShapedCsc(int m, unsigned seed, double tiny) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> anyRow(0, m - 1);
    std::uniform_int_distribution<int> extra(3, 6);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const double tinyVals[] = {1e-14, -3e-14, 0.0, lp::kLuDropTol};
    Csc a;
    a.m = m;
    a.ptr.push_back(0);
    for (int j = 0; j < m; ++j) {
        std::vector<std::pair<int, double>> es;
        if (j < 3 * m / 4) es.emplace_back(j, 1.0);
        for (int t = extra(rng); t > 0; --t) {
            const double v = u(rng) < tiny ? tinyVals[rng() % 4] : 1.0;
            es.emplace_back(anyRow(rng), v);
        }
        std::sort(es.begin(), es.end(),
                  [](auto& x, auto& y) { return x.first < y.first; });
        es.erase(std::unique(es.begin(), es.end(),
                             [](auto& x, auto& y) { return x.first == y.first; }),
                 es.end());
        for (const auto& [r, v] : es) {
            a.row.push_back(r);
            a.val.push_back(v);
        }
        a.ptr.push_back(static_cast<int>(a.row.size()));
    }
    for (int i = 0; i < m; ++i) {
        a.row.push_back(i);
        a.val.push_back(-1.0);
        a.ptr.push_back(static_cast<int>(a.row.size()));
    }
    return a;
}

/// Like steinerShapedCsc, but the first `dense` rows are eigenvector cuts:
/// every edge column holds a random coefficient in each of them.
Csc eigencutCsc(int m, int dense, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> sparseRow(dense, m - 1);
    std::uniform_real_distribution<double> coef(-1.0, 1.0);
    Csc a;
    a.m = m;
    a.ptr.push_back(0);
    for (int j = 0; j < m; ++j) {
        std::vector<std::pair<int, double>> es;
        for (int i = 0; i < dense; ++i) es.emplace_back(i, coef(rng));
        if (j >= dense && j < 3 * m / 4) es.emplace_back(j, 1.0);
        es.emplace_back(sparseRow(rng), 1.0);
        std::sort(es.begin(), es.end(),
                  [](auto& x, auto& y) { return x.first < y.first; });
        es.erase(std::unique(es.begin(), es.end(),
                             [](auto& x, auto& y) { return x.first == y.first; }),
                 es.end());
        for (const auto& [r, v] : es) {
            a.row.push_back(r);
            a.val.push_back(v);
        }
        a.ptr.push_back(static_cast<int>(a.row.size()));
    }
    for (int i = 0; i < m; ++i) {
        a.row.push_back(i);
        a.val.push_back(-1.0);
        a.ptr.push_back(static_cast<int>(a.row.size()));
    }
    return a;
}

/// Basis over the edge+slack columns of `a`: edge columns 0..3m/4-1 and
/// the slacks of the other rows, in slot order shuffled by `seed`.
std::vector<int> edgeBasis(const Csc& a, unsigned seed) {
    const int m = a.m;
    std::vector<int> basic;
    for (int j = 0; j < 3 * m / 4; ++j) basic.push_back(j);
    for (int i = 3 * m / 4; i < m; ++i) basic.push_back(m + i);
    std::shuffle(basic.begin(), basic.end(), std::mt19937(seed));
    return basic;
}

std::string factorizeAndDescribe(const Csc& a, const std::vector<int>& basic) {
    LuFactor f;
    std::vector<int> rowOfSlot;
    const bool ok = f.factorize(basic, a.ptr, a.row, a.val, rowOfSlot);
    return lp::LuFactorPeek::describe(f, ok, rowOfSlot);
}

}  // namespace

TEST(LuFactor, MatchesParentFactorization) {
    const Csc stp = steinerShapedCsc(24, 2, 0.0);
    const Csc eig = eigencutCsc(24, 4, 9);
    const Csc tiny = steinerShapedCsc(24, 14, 0.25);
    const Csc sing = steinerShapedCsc(12, 3, 0.0);
    std::vector<int> singBasic = edgeBasis(sing, 4);
    // Two slots hold edge column 0: the basis is singular.
    *std::find(singBasic.begin(), singBasic.end(), 1) = 0;
    const std::pair<const char*, std::string> runs[] = {
        {"steiner", factorizeAndDescribe(stp, edgeBasis(stp, 2))},
        {"eigencut", factorizeAndDescribe(eig, edgeBasis(eig, 9))},
        {"tiny", factorizeAndDescribe(tiny, edgeBasis(tiny, 14))},
        {"singular", factorizeAndDescribe(sing, singBasic)},
    };
    const std::map<std::string, std::string> pinned = {
        {"steiner", R"(ok
slots 3 19 9 22 4 12 20 0 16 10 6 8 11 23 5 13 14 2 1 7 21 18 15 17
u0 r18 -0x1p+0: 16=0x1p+0 10=0x1p+0
u1 r21 -0x1p+0: 18=0x1p+0 6=0x1p+0 11=0x1p+0
u2 r23 -0x1p+0: 12=0x1p+0 18=0x1p+0 6=0x1p+0 23=0x1p+0 15=0x1p+0 10=0x1p+0
u3 r20 -0x1p+0: 6=0x1p+0 20=0x1p+0
u4 r22 -0x1p+0: 22=0x1p+0
u5 r19 -0x1p+0: 23=0x1p+0 15=0x1p+0 7=0x1p+0 14=0x1p+0
u6 r16 0x1p+0: 13=0x1p+0
u7 r14 0x1p+0: 18=0x1p+0
u8 r12 0x1p+0: 14=0x1p+0 19=0x1p+0
u9 r2 0x1p+0: 16=0x1p+0 20=0x1p+0
u10 r11 0x1p+0: 13=0x1p+0 17=0x1p+0 19=0x1p+0
u11 r17 0x1p+0: 16=0x1p+0 18=0x1p+0 17=0x1p+0
u12 r3 0x1p+0: 23=0x1p+0 16=-0x1p+0 20=-0x1p+0
u13 r0 0x1p+0: 16=0x1p+0 21=0x1p+0 22=0x1p+0
u14 r1 0x1p+0: 20=0x1p+0 17=0x1p+0 19=0x1p+0
u15 r8 0x1p+0: 18=-0x1p+0 23=-0x1p+0 16=0x1p+0 19=-0x1p+0
u16 r9 -0x1p+1: 20=0x1p+0 17=-0x1p+1 23=0x1p+0
u17 r13 0x1p+0: 23=0x1p-1 21=0x1p+0 20=-0x1.8p+0
u18 r4 0x1p+1: 23=0x1p+1 22=0x1p+0 19=0x1p+1
u19 r15 -0x1p+0: 21=0x1p+0 20=0x1p+0 23=-0x1p+0
u20 r5 0x1.cp+1: 21=0x1p+1 23=-0x1p-1 22=0x1p-1
u21 r6 0x1.5b6db6db6db6ep+1: 23=0x1.2492492492492p-1 22=-0x1.2492492492494p-4
u22 r7 0x1.a86bca1af286cp+0: 23=-0x1.0d79435e50d79p-2
u23 r10 0x1.30c30c30c30c3p+0:
l0 r18:
l1 r21:
l2 r23:
l3 r20:
l4 r22:
l5 r19:
l6 r16: 5=0x1p+0 7=0x1p+0
l7 r14: 5=0x1p+0 8=0x1p+0
l8 r12: 5=0x1p+0 15=0x1p+0
l9 r2: 3=0x1p+0 13=0x1p+0
l10 r11: 9=0x1p+0 15=0x1p+0
l11 r17: 6=0x1p+0 9=0x1p+0
l12 r3: 5=0x1p+0 6=0x1p+0 8=0x1p+0
l13 r0: 6=0x1p+0 7=-0x1p+0 15=-0x1p+0
l14 r1: 6=0x1p+0 8=0x1p+0 5=-0x1p+0 15=-0x1p+0
l15 r8: 4=0x1p+0 9=0x1p+0 15=0x1p+0
l16 r9: 13=0x1p-1 5=-0x1p-1 7=-0x1p-1
l17 r13: 6=-0x1p+1
l18 r4: 15=0x1p+0 5=-0x1p-1 6=-0x1p-1
l19 r15: 7=-0x1p+0 5=-0x1p+0
l20 r5: 7=0x1.6db6db6db6db7p-1 10=0x1.2492492492492p-2 6=-0x1.b6db6db6db6dbp-1
l21 r6: 10=0x1.435e50d79435ep-3 7=0x1.af286bca1af28p-3
l22 r7: 10=0x1.0c30c30c30c31p-1
l23 r10:
)"},
        {"eigencut", R"(ok
slots 18 6 16 7 23 19 5 17 3 8 13 15 21 0 9 10 4 2 12 11 22 1 14 20
u0 r20 -0x1p+0: 15=0x1p+0
u1 r22 -0x1p+0:
u2 r21 -0x1p+0: 21=0x1p+0
u3 r19 -0x1p+0: 7=0x1p+0
u4 r23 -0x1p+0: 22=0x1p+0 6=0x1p+0
u5 r18 -0x1p+0:
u6 r9 0x1p+0:
u7 r7 0x1p+0: 8=0x1p+0
u8 r14 0x1p+0:
u9 r11 0x1p+0: 10=0x1p+0
u10 r12 0x1p+0: 13=0x1p+0 11=0x1p+0
u11 r16 0x1p+0: 12=0x1p+0
u12 r8 0x1p+0:
u13 r6 0x1p+0: 14=0x1p+0 23=0x1p+0 21=0x1p+0
u14 r5 0x1p+0:
u15 r4 0x1p+0: 16=0x1p+0 17=0x1p+0 20=0x1p+0
u16 r13 0x1p+0:
u17 r10 0x1p+0: 18=0x1p+0
u18 r15 0x1p+0: 19=0x1p+0
u19 r17 0x1p+0:
u20 r1 -0x1.415487b91240ep+0: 23=0x1.ea90cd95fdecdp-1 22=0x1.2a0633eb398bp-3 21=0x1.85ff89b08cc5p-4
u21 r2 0x1.03f4ca208394cp+0: 23=-0x1.36208b2da0ccp-2 22=0x1.793727ceb67b8p-1
u22 r0 0x1.43747fd365e79p-1: 23=0x1.88441249bd3e8p-5
u23 r3 0x1.2da6d43f05b69p-1:
l0 r20:
l1 r22:
l2 r21:
l3 r19:
l4 r23:
l5 r18:
l6 r9: 0=-0x1.e75cf721564p-8 1=-0x1.68dfadd9ffc5p-5 2=-0x1.07f6ffedc1e98p-3 3=0x1.7b4c4fb7987f4p-1
l7 r7: 0=0x1.e22574a3b36dcp-1 1=-0x1.42015c2813dadp-1 2=-0x1.070caf2d524c6p-1 3=0x1.7e5cca0253b6ap-1
l8 r14: 0=-0x1.8877cc454481p-2 1=0x1.2a2412bbb7289p-1 2=-0x1.600affa52c926p-2 3=0x1.e9513972c698p-5
l9 r11: 0=-0x1.203227a7f25bcp-1 1=-0x1.4dca5c41f6e7p-3 2=-0x1.01f1c417732c2p-1 3=-0x1.a9ec441f720f6p-1
l10 r12: 0=0x1.b6d7eb43e4f04p-1 1=0x1.c1a13b095336p-2 2=0x1.b572134042bdp-2 3=-0x1.fbe86276f7fap-5
l11 r16: 0=-0x1.84cd4c5f098a6p-1 1=-0x1.5d94831be5e22p+0 2=0x1.a87da953320d8p-3 3=0x1.90f9dd12d0a8p-4
l12 r8: 0=-0x1.2d82457559bap-3 1=0x1.86ac60fb6a1f2p+0 2=-0x1.0ee95d41b4a49p+0 3=-0x1.8e35d5547f6c2p-1
l13 r6: 0=-0x1.04f5c09bbd712p-1 1=-0x1.eb74c5bffc016p-1 2=-0x1.12806f6e79e04p+0 3=-0x1.5cd1a657e9fe3p-1
l14 r5: 0=0x1.c39be58498b84p-2 1=0x1.d746cd5185b13p+0 2=0x1.ae0436ed39fbbp+0 3=0x1.a5e3b047a027ep+0
l15 r4: 0=0x1.b2a1d71187e3p-4 1=0x1.c5f23ee2cf492p-1 2=0x1.09520c5b17814p-2 3=0x1.09b4d13b1c6b8p-3
l16 r13: 0=-0x1.99e256a3d26fcp-2 1=-0x1.d5d1e20044758p-1 2=0x1.17498837bcff8p-3 3=0x1.e3ea4c4d47498p-2
l17 r10: 0=0x1.81b8faea8edeap-1 1=-0x1.19de83e2078dcp+0 2=-0x1.5c606c62bb56bp-1 3=-0x1.fc24e11627668p-2
l18 r15: 0=-0x1.11585287aba9bp+0 1=0x1.fa8267a013c7ep-1 2=0x1.5a78bbbb9a3d9p-1 3=0x1.4cb9afc3fd8ccp-2
l19 r17: 0=0x1.3c4d0626b5a77p+0 1=-0x1.002783a25dadap+0 2=-0x1.a21a8ab391e66p-1 3=0x1.28266d3d69838p-3
l20 r1: 0=0x1.7d274d4d3a1f1p-4 2=0x1.a10a8c462a286p-2 3=-0x1.150796a55c0dcp-2
l21 r2: 0=-0x1.57681fbc63631p-2 3=0x1.fc28dbd469b81p-4
l22 r0: 3=0x1.c8b5ce5edfd3bp-2
l23 r3:
)"},
        {"tiny", R"(ok
slots 3 7 23 18 6 22 17 16 12 5 13 0 2 15 11 4 19 10 1 8 20 14 9 21
u0 r21 -0x1p+0: 9=0x1p+0 8=0x1p+0 10=0x1p+0
u1 r20 -0x1p+0: 16=0x1p+0
u2 r19 -0x1p+0: 6=0x1p+0 22=0x1p+0 12=0x1p+0 10=0x1p+0
u3 r22 -0x1p+0: 13=0x1p+0 22=0x1p+0 21=0x1p+0
u4 r18 -0x1p+0: 13=0x1p+0 7=0x1p+0
u5 r23 -0x1p+0: 7=0x1p+0 21=0x1p+0 12=0x1p+0
u6 r3 0x1p+0: 19=0x1p+0 15=0x1p+0
u7 r11 0x1p+0: 11=0x1.c25c268497682p-44 13=0x1p+0
u8 r4 0x1p+0: 9=0x1p+0 19=0x1p+0 17=0x1p+0
u9 r7 0x1p+0: 15=0x1p+0
u10 r14 0x1p+0: 14=0x1p+0 18=0x1p+0
u11 r5 0x1p+0: 22=0x1p+0 12=0x1p+0 18=0x1p+0
u12 r8 0x1p+0: 14=0x1p+0
u13 r2 -0x1p+0: 19=0x1p+0 14=0x1p+0 21=0x1p+0
u14 r16 0x1p+0: 23=0x1p+0 18=0x1p+0
u15 r13 -0x1p+0: 16=0x1p+0 20=0x1p+0
u16 r6 0x1p+0: 19=0x1p+0 21=0x1p+0 22=-0x1p+0
u17 r0 0x1p+0: 19=0x1p+0 22=0x1p+0
u18 r9 -0x1p+0: 20=0x1p+0 23=0x1p+0 19=0x1p+0 21=0x1p+0
u19 r17 -0x1p+2: 22=0x1p+0 23=-0x1.8p+1 21=-0x1p+2
u20 r12 -0x1p+1: 23=0x1p-2 22=-0x1.cp+0 21=0x1p+1
u21 r10 0x1.00000000000e1p+1: 22=0x1.9fffffffffe76p+0 23=0x1.a000000000038p+0
u22 r15 -0x1.bfffffffffe84p+1: 23=-0x1.ffffffffffb28p-2
u23 r1 0x1.4924924924ca1p-3:
l0 r21:
l1 r20:
l2 r19:
l3 r22:
l4 r18:
l5 r23:
l6 r3: 12=0x1p+0
l7 r11: 2=0x1p+0
l8 r4: 10=0x1p+0
l9 r7: 13=0x1p+0 10=-0x1p+0
l10 r14: 1=0x1p+0 9=0x1p+0
l11 r5: 6=0x1p+0 17=0x1p+0
l12 r8: 1=0x1p+0 15=0x1p+0 17=-0x1p+0
l13 r2: 9=-0x1p+0 15=-0x1p+0
l14 r16: 12=0x1p+0 1=-0x1p+0 17=0x1p+0
l15 r13: 17=-0x1p+0 12=0x1p+0 10=-0x1p+0
l16 r6: 10=0x1p+1 17=0x1p+1
l17 r0: 12=0x1p+0 15=0x1p+0 10=-0x1p+0
l18 r9: 17=0x1p+1 12=0x1p+0
l19 r17: 12=0x1.8p-1 10=0x1p-1
l20 r12: 10=-0x1.00000000001c2p-1 15=-0x1p-1
l21 r10: 1=0x1.ffffffffffe3ep-2 15=0x1.ffffffffffe3ep-1
l22 r15: 1=-0x1.b6db6db6dc5e2p-5
l23 r1:
)"},
        {"singular", R"(singular
slots -1 7 4 0 11 8 6 9 1 10 2 3
l0 r10:
l1 r9:
l2 r11:
l3 r7: 5=0x1p+0 8=0x1p+0
l4 r4: 1=0x1p+0
l5 r8: 2=0x1p+0 3=0x1p+0 6=0x1p+0
l6 r1:
l7 r3: 0=0x1p+0
l8 r0: 2=0x1p+0 5=0x1p+0
l9 r6:
l10 r2: 5=0x1p+0
)"},
    };
    for (const auto& [name, got] : runs) EXPECT_EQ(got, pinned.at(name)) << name;
}
