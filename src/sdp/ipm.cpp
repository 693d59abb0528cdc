#include "sdp/ipm.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen.hpp"
#include "linalg/factor.hpp"

namespace sdp {

using linalg::Cholesky;
using linalg::Matrix;

const char* toString(SdpStatus s) {
    switch (s) {
        case SdpStatus::Optimal: return "optimal";
        case SdpStatus::Infeasible: return "infeasible";
        case SdpStatus::Failed: return "failed";
    }
    return "?";
}

Matrix SdpBlock::zMatrix(const std::vector<double>& y) const {
    Matrix z = c;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].empty() || y[i] == 0.0) continue;
        Matrix term = a[i];
        term *= y[i];
        z -= term;
    }
    return z;
}

bool SdpProblem::isFeasible(const std::vector<double>& y, double tol) const {
    for (int i = 0; i < numVars; ++i)
        if (y[i] < lb[i] - tol || y[i] > ub[i] + tol) return false;
    for (const SdpBlock& blk : blocks) {
        if (linalg::smallestEigenvalue(blk.zMatrix(y)) < -tol) return false;
    }
    return true;
}

double SdpProblem::objective(const std::vector<double>& y) const {
    double s = 0.0;
    for (int i = 0; i < numVars; ++i) s += b[i] * y[i];
    return s;
}

namespace {

constexpr double kBoundInf = 1e29;

/// One nonzero A_j of a block with dim > 1, stored by its nonzeros.
struct Term {
    int var;                  ///< internal variable index
    std::vector<int> pos;     ///< row-major positions of the nonzeros
    std::vector<double> val;  ///< their values, in the same order
    std::vector<int> cols;    ///< ascending columns that hold a nonzero
};

/// An internal block. A 1x1 block (linear row, variable bound, penalty
/// sign) keeps its data as plain doubles and its A_j as (var, a) pairs;
/// a larger block keeps dense C, X, Z and sparse terms. Terms are in
/// ascending variable order, so the penalty radius, where present, is last.
struct Block {
    int dim = 1;
    // dim == 1
    std::vector<std::pair<int, double>> coef;
    double c = 0.0, x = 1.0, z = 0.0, zinv = 0.0, dx = 0.0, dz = 0.0;
    // dim > 1
    std::vector<Term> terms;
    Matrix C, X, Z, Zinv, dX, dZ;
    /// The union of the terms' positions, by row: row i's columns are
    /// uCol[uRowStart[i] .. uRowStart[i+1]), ascending. Only these entries
    /// of X A_j Z^{-1} and mu Z^{-1} - X are ever read.
    std::vector<int> uRowStart, uCol;
    /// Workspace: L holds the Cholesky factor of Z, then each step-length
    /// trial; Lt is L transposed; XdZ and corr are X dZ and X dZ Z^{-1}.
    Matrix L, Lt, XdZ, corr;

    bool scalar() const { return dim == 1; }
    /// The penalty radius for user blocks and the penalty block.
    int lastVar() const {
        return scalar() ? coef.back().first : terms.back().var;
    }
};

/// `a`'s nonzeros as a term; an all-zero matrix yields no nonzeros.
Term sparseTerm(int var, const Matrix& a) {
    Term t{var, {}, {}, {}};
    const int n = static_cast<int>(a.rows());
    std::vector<bool> used(n, false);
    for (int r = 0; r < n; ++r)
        for (int c = 0; c < n; ++c)
            if (a(r, c) != 0.0) {
                t.pos.push_back(r * n + c);
                t.val.push_back(a(r, c));
                used[c] = true;
            }
    for (int c = 0; c < n; ++c)
        if (used[c]) t.cols.push_back(c);
    return t;
}

/// <A, D> over A's nonzeros, summed in row-major order.
double termDot(const Term& t, const double* d) {
    double s = 0.0;
    for (std::size_t e = 0; e < t.pos.size(); ++e) s += t.val[e] * d[t.pos[e]];
    return s;
}

/// Z = C - sum_j A_j y_j, skipping zero y_j.
void formZ(Block& blk, const std::vector<double>& y) {
    if (blk.scalar()) {
        blk.z = blk.c;
        for (const auto& [j, a] : blk.coef)
            if (y[j] != 0.0) blk.z -= a * y[j];
        return;
    }
    blk.Z = blk.C;
    double* z = blk.Z.data().data();
    for (const Term& t : blk.terms) {
        const double yj = y[t.var];
        if (yj == 0.0) continue;
        for (std::size_t e = 0; e < t.pos.size(); ++e)
            z[t.pos[e]] -= t.val[e] * yj;
    }
}

/// The union of `blk`'s term positions, grouped by row.
void markUsedPositions(Block& blk) {
    const int n = blk.dim;
    std::vector<char> used(static_cast<std::size_t>(n) * n, 0);
    for (const Term& t : blk.terms)
        for (int p : t.pos) used[p] = 1;
    blk.uRowStart.assign(1, 0);
    for (int i = 0; i < n; ++i) {
        for (int c = 0; c < n; ++c)
            if (used[i * n + c]) blk.uCol.push_back(c);
        blk.uRowStart.push_back(static_cast<int>(blk.uCol.size()));
    }
}

/// u = (X A) Z^{-1} at the block's used positions, through scratch
/// tt = (X A)^T. X A runs over A's nonzeros and the product with Z^{-1}
/// over A's nonzero columns, which are the only rows of tt that are zeroed
/// or read; each entry adds its products in the dense operator*'s order.
/// Column k of X is read as row k, which is the same numbers: X is exactly
/// symmetric (the identity, plus symmetrized steps).
void xaz(const Block& blk, const Term& a, std::vector<double>& tt,
         std::vector<double>& u) {
    const std::size_t n = static_cast<std::size_t>(blk.dim);
    const double* x = blk.X.data().data();
    const double* zinv = blk.Zinv.data().data();
    tt.resize(n * n);
    for (int c : a.cols) std::fill_n(tt.data() + c * n, n, 0.0);
    for (std::size_t e = 0; e < a.pos.size(); ++e) {
        const std::size_t k = a.pos[e] / n;
        const std::size_t c = a.pos[e] % n;
        const double v = a.val[e];
        const double* xk = x + k * n;
        double* tc = tt.data() + c * n;
        for (std::size_t i = 0; i < n; ++i) tc[i] += xk[i] * v;
    }
    u.resize(n * n);
    for (std::size_t i = 0; i < n; ++i) {
        const int* cb = blk.uCol.data() + blk.uRowStart[i];
        const int* ce = blk.uCol.data() + blk.uRowStart[i + 1];
        double* ui = u.data() + i * n;
        const bool fullRow = static_cast<std::size_t>(ce - cb) == n;
        if (fullRow)
            std::fill_n(ui, n, 0.0);
        else
            for (const int* c = cb; c != ce; ++c) ui[*c] = 0.0;
        for (int k : a.cols) {
            const double tik = tt[k * n + i];
            if (tik == 0.0) continue;
            const double* zk = zinv + k * n;
            if (fullRow)
                for (std::size_t c = 0; c < n; ++c) ui[c] += tik * zk[c];
            else
                for (const int* c = cb; c != ce; ++c) ui[*c] += tik * zk[*c];
        }
    }
}

/// Largest step alpha in (0, 1] keeping m + alpha*d positive definite,
/// found by backtracking Cholesky tests on the lower triangle, which is
/// all the factorization reads; `trial` is scratch space.
double maxPsdStep(const Matrix& m, const Matrix& d, Matrix& trial) {
    const std::size_t n = m.rows();
    if (trial.rows() != n) trial.assign(n, n);
    double alpha = 1.0;
    for (int iter = 0; iter < 80; ++iter) {
        for (std::size_t i = 0; i < n; ++i) {
            const double* di = d.rowPtr(i);
            const double* mi = m.rowPtr(i);
            double* ti = trial.rowPtr(i);
            for (std::size_t j = 0; j <= i; ++j) ti[j] = di[j] * alpha + mi[j];
        }
        if (Cholesky::factorInPlace(trial, 1e-14)) return alpha;
        alpha *= 0.8;
    }
    return 0.0;
}

/// maxPsdStep for a 1x1 block: the Cholesky test is d*alpha + m > 1e-14.
double maxScalarStep(double m, double d) {
    double alpha = 1.0;
    for (int iter = 0; iter < 80; ++iter) {
        if (!(d * alpha + m <= 1e-14)) return alpha;
        alpha *= 0.8;
    }
    return 0.0;
}

}  // namespace

SdpResult solveSdp(const SdpProblem& prob, const IpmOptions& opts) {
    SdpResult res;
    const int m = prob.numVars;

    // --- eliminate fixed variables ------------------------------------------
    std::vector<int> freeIdx;
    std::vector<double> fixedVal(m, 0.0);
    std::vector<bool> isFixed(m, false);
    double fixedObj = 0.0;
    for (int i = 0; i < m; ++i) {
        if (prob.ub[i] - prob.lb[i] < 1e-9) {
            isFixed[i] = true;
            fixedVal[i] = 0.5 * (prob.lb[i] + prob.ub[i]);
            fixedObj += prob.b[i] * fixedVal[i];
        } else {
            freeIdx.push_back(i);
        }
    }
    const int mf = static_cast<int>(freeIdx.size());

    // --- internal augmented problem -----------------------------------------
    // Variables: free originals (0..mf-1) plus the penalty radius r (mf).
    const int mi = mf + 1;
    std::vector<Block> blocks;
    std::vector<double> bi(mi, 0.0);
    for (int k = 0; k < mf; ++k) bi[k] = prob.b[freeIdx[k]];
    bi[mf] = -opts.penaltyGamma;

    auto scalarBlock = [&](double c, int var, double a) {
        Block blk;
        blk.c = c;
        blk.coef.emplace_back(var, a);
        blocks.push_back(std::move(blk));
    };
    for (const SdpBlock& ub : prob.blocks) {
        auto userA = [&](int i) -> const Matrix* {
            if (static_cast<int>(ub.a.size()) <= i || ub.a[i].empty())
                return nullptr;
            return &ub.a[i];
        };
        Block blk;
        blk.dim = ub.dim;
        // Substitute fixed variables into C.
        if (blk.scalar()) {
            blk.c = ub.c(0, 0);
            for (int i = 0; i < m; ++i)
                if (const Matrix* a = userA(i);
                    a && isFixed[i] && fixedVal[i] != 0.0)
                    blk.c -= (*a)(0, 0) * fixedVal[i];
            for (int k = 0; k < mf; ++k)
                if (const Matrix* a = userA(freeIdx[k]); a && (*a)(0, 0) != 0.0)
                    blk.coef.emplace_back(k, (*a)(0, 0));
            // Penalty: Z = C - A*(y) + r I, i.e. A_pen = -I.
            blk.coef.emplace_back(mf, -1.0);
        } else {
            blk.C = ub.c;
            for (int i = 0; i < m; ++i) {
                const Matrix* a = userA(i);
                if (!a || !isFixed[i] || fixedVal[i] == 0.0) continue;
                for (std::size_t e = 0; e < blk.C.data().size(); ++e)
                    blk.C.data()[e] -= a->data()[e] * fixedVal[i];
            }
            for (int k = 0; k < mf; ++k)
                if (const Matrix* a = userA(freeIdx[k])) {
                    Term t = sparseTerm(k, *a);
                    if (!t.pos.empty()) blk.terms.push_back(std::move(t));
                }
            Matrix negI = Matrix::identity(ub.dim);
            negI *= -1.0;
            blk.terms.push_back(sparseTerm(mf, negI));
            blk.X = Matrix::identity(ub.dim);
            markUsedPositions(blk);
        }
        blocks.push_back(std::move(blk));
    }
    // Bound blocks (1x1) for finite bounds of free variables.
    for (int k = 0; k < mf; ++k) {
        const int i = freeIdx[k];
        if (prob.lb[i] > -kBoundInf)
            scalarBlock(-prob.lb[i], k, -1.0);  // Z = y_k - l
        if (prob.ub[i] < kBoundInf)
            scalarBlock(prob.ub[i], k, 1.0);  // Z = u - y_k
    }
    // Penalty non-negativity block: Z = r.
    scalarBlock(0.0, mf, -1.0);

    // --- initial point --------------------------------------------------------
    std::vector<double> y(mi, 0.0);
    for (int k = 0; k < mf; ++k) {
        const int i = freeIdx[k];
        const bool hasL = prob.lb[i] > -kBoundInf;
        const bool hasU = prob.ub[i] < kBoundInf;
        if (hasL && hasU)
            y[k] = 0.5 * (prob.lb[i] + prob.ub[i]);
        else if (hasL)
            y[k] = prob.lb[i] + 1.0;
        else if (hasU)
            y[k] = prob.ub[i] - 1.0;
    }
    // Radius large enough for strict feasibility of the blocks carrying it
    // (probed at r = 0, which y[mf] still is).
    double r0 = 1.0;
    for (Block& blk : blocks) {
        if (blk.lastVar() != mf) continue;
        formZ(blk, y);
        const double lam =
            blk.scalar() ? blk.z : linalg::smallestEigenvalue(blk.Z);
        r0 = std::max(r0, -lam + 1.0);
    }
    y[mf] = r0;

    int totalDim = 0;
    std::size_t maxTerms = 0;
    for (const Block& blk : blocks) {
        totalDim += blk.dim;
        maxTerms = std::max(maxTerms, blk.scalar() ? blk.coef.size()
                                                   : blk.terms.size());
    }

    // rp_i = b_i - <A_i, X>, each block's inner product subtracted in order.
    std::vector<double> rp(mi);
    auto primalResidual = [&] {
        rp = bi;
        for (const Block& blk : blocks) {
            if (blk.scalar()) {
                for (const auto& [j, a] : blk.coef) rp[j] -= a * blk.x;
            } else {
                for (const Term& t : blk.terms)
                    rp[t.var] -= termDot(t, blk.X.data().data());
            }
        }
    };

    // Workspace for the whole solve.
    Matrix M(mi, mi), Mf;
    std::vector<double> rhs(mi), dy(mi), tt, g, col;
    std::vector<std::vector<double>> u(maxTerms);
    std::vector<double> su(maxTerms);

    // --- main IPM loop ---------------------------------------------------------
    double lastAlpha = 1.0;
    int iter = 0;
    for (; iter < opts.maxIters; ++iter) {
        bool zOk = true;
        for (Block& blk : blocks) {
            formZ(blk, y);
            if (blk.scalar()) {
                // Cholesky::factor and solve(identity) on a 1x1 matrix.
                if (blk.z <= 1e-300) {
                    zOk = false;
                    break;
                }
                const double l = std::sqrt(blk.z);
                blk.zinv = (1.0 / l) / l;
                continue;
            }
            blk.L = blk.Z;
            if (!Cholesky::factorInPlace(blk.L, 1e-300)) {
                zOk = false;
                break;
            }
            Cholesky::inverseInto(blk.L, blk.Zinv, blk.Lt, col);
            blk.Zinv.symmetrize();
        }
        if (!zOk) break;  // lost dual interiority: numerical failure

        double gap = 0.0;
        for (const Block& blk : blocks)
            gap += blk.scalar() ? blk.x * blk.z
                                : linalg::frobeniusDot(blk.X, blk.Z);
        const double mu = gap / totalDim;

        primalResidual();
        double rpNorm = 0.0;
        for (double v : rp) rpNorm = std::max(rpNorm, std::fabs(v));
        const double objScale = 1.0 + std::fabs(fixedObj) +
                                std::fabs(prob.objective(fixedVal));
        if (mu < opts.gapTol * objScale && rpNorm < opts.feasTol * objScale)
            break;

        const double sigma = lastAlpha > 0.7 ? 0.2 : 0.5;
        const double muTarget = sigma * mu;

        // Schur complement M dy = rp - g, with
        //   M_ij = sum_k <A_i, sym(X A_j Z^{-1})>,  g_i = <A_i, mu Z^{-1}-X>.
        // Each block adds its value to M_ij and M_ji alike.
        std::fill(M.data().begin(), M.data().end(), 0.0);
        std::fill(rhs.begin(), rhs.end(), 0.0);
        auto addM = [&](int i, int j, double v) {
            M(i, j) += v;
            if (i != j) M(j, i) += v;
        };
        for (const Block& blk : blocks) {
            if (blk.scalar()) {
                const std::size_t nt = blk.coef.size();
                for (std::size_t jj = 0; jj < nt; ++jj)
                    su[jj] = (blk.x * blk.coef[jj].second) * blk.zinv;
                const double g = blk.zinv * muTarget - blk.x;
                for (std::size_t ii = 0; ii < nt; ++ii) {
                    const auto [i, ai] = blk.coef[ii];
                    for (std::size_t jj = ii; jj < nt; ++jj) {
                        const auto [j, aj] = blk.coef[jj];
                        addM(i, j, 0.5 * (ai * su[jj] + aj * su[ii]));
                    }
                    rhs[i] -= ai * g;
                }
                continue;
            }
            for (std::size_t jj = 0; jj < blk.terms.size(); ++jj)
                xaz(blk, blk.terms[jj], tt, u[jj]);
            // g = mu Z^{-1} - X at the used positions.
            const std::size_t n = static_cast<std::size_t>(blk.dim);
            const double* zinv = blk.Zinv.data().data();
            const double* x = blk.X.data().data();
            g.resize(n * n);
            for (std::size_t i = 0; i < n; ++i)
                for (int q = blk.uRowStart[i]; q < blk.uRowStart[i + 1]; ++q) {
                    const std::size_t e = i * n + blk.uCol[q];
                    g[e] = zinv[e] * muTarget - x[e];
                }
            for (std::size_t ii = 0; ii < blk.terms.size(); ++ii) {
                const Term& ti = blk.terms[ii];
                for (std::size_t jj = ii; jj < blk.terms.size(); ++jj) {
                    const Term& tj = blk.terms[jj];
                    addM(ti.var, tj.var,
                         0.5 * (termDot(ti, u[jj].data()) +
                                termDot(tj, u[ii].data())));
                }
                rhs[ti.var] -= termDot(ti, g.data());
            }
        }
        for (int j = 0; j < mi; ++j) {
            rhs[j] += rp[j];
            M(j, j) += 1e-12;  // tiny regularization
        }
        Mf = M;
        if (Cholesky::factorInPlace(Mf, 1e-300)) {
            dy = rhs;
            Cholesky::solveInPlace(Mf, dy);
        } else if (auto lu = linalg::luSolve(M, rhs)) {
            dy = *lu;
        } else {
            break;  // singular Schur complement
        }

        // Directions and step sizes.
        double alphaP = 1.0, alphaD = 1.0;
        for (Block& blk : blocks) {
            if (blk.scalar()) {
                blk.dz = 0.0;
                for (const auto& [j, a] : blk.coef)
                    if (dy[j] != 0.0) blk.dz -= a * dy[j];
                // dx = mu z^{-1} - x - x dz z^{-1}.
                blk.dx = (blk.zinv * muTarget - blk.x) -
                         (blk.x * blk.dz) * blk.zinv;
                alphaP = std::min(alphaP, maxScalarStep(blk.x, blk.dx));
                alphaD = std::min(alphaD, maxScalarStep(blk.z, blk.dz));
                continue;
            }
            if (blk.dZ.empty())
                blk.dZ = Matrix(blk.dim, blk.dim);
            else
                std::fill(blk.dZ.data().begin(), blk.dZ.data().end(), 0.0);
            double* dz = blk.dZ.data().data();
            for (const Term& t : blk.terms) {
                const double dyj = dy[t.var];
                if (dyj == 0.0) continue;
                for (std::size_t e = 0; e < t.pos.size(); ++e)
                    dz[t.pos[e]] -= t.val[e] * dyj;
            }
            // dX = mu Z^{-1} - X - X dZ Z^{-1}, symmetrized.
            linalg::multiplyInto(blk.X, blk.dZ, blk.XdZ);
            linalg::multiplyInto(blk.XdZ, blk.Zinv, blk.corr);
            if (blk.dX.empty()) blk.dX = Matrix(blk.dim, blk.dim);
            const std::vector<double>& zinv = blk.Zinv.data();
            const std::vector<double>& x = blk.X.data();
            const std::vector<double>& corr = blk.corr.data();
            std::vector<double>& dx = blk.dX.data();
            for (std::size_t e = 0; e < dx.size(); ++e)
                dx[e] = zinv[e] * muTarget - x[e] - corr[e];
            blk.dX.symmetrize();
            alphaP = std::min(alphaP, maxPsdStep(blk.X, blk.dX, blk.L));
            alphaD = std::min(alphaD, maxPsdStep(blk.Z, blk.dZ, blk.L));
        }
        alphaP *= 0.98;
        alphaD *= 0.98;
        if (alphaP < 1e-10 && alphaD < 1e-10) break;  // stalled
        for (Block& blk : blocks) {
            if (blk.scalar()) {
                blk.x += blk.dx * alphaP;
                continue;
            }
            std::vector<double>& x = blk.X.data();
            const std::vector<double>& dx = blk.dX.data();
            for (std::size_t e = 0; e < x.size(); ++e) x[e] += dx[e] * alphaP;
        }
        for (int j = 0; j < mi; ++j) y[j] += alphaD * dy[j];
        lastAlpha = std::min(alphaP, alphaD);
    }
    res.iterations = iter;

    // --- extract result ---------------------------------------------------------
    res.penalty = std::max(0.0, y[mf]);
    res.y.assign(m, 0.0);
    for (int i = 0; i < m; ++i) res.y[i] = fixedVal[i];
    for (int k = 0; k < mf; ++k) {
        const int i = freeIdx[k];
        res.y[i] = std::clamp(y[k], prob.lb[i], prob.ub[i]);
    }
    res.objective = prob.objective(res.y);

    // Primal upper bound on sup b'y (weak duality on the augmented problem,
    // with a safety margin for the residual primal infeasibility).
    double primalObj = fixedObj;
    double rpMargin = 0.0;
    {
        double ymax = 1.0;
        for (int k = 0; k < mf; ++k) ymax = std::max(ymax, std::fabs(y[k]));
        for (const Block& blk : blocks)
            primalObj += blk.scalar() ? blk.c * blk.x
                                      : linalg::frobeniusDot(blk.C, blk.X);
        primalResidual();
        for (int j = 0; j < mi; ++j)
            rpMargin += std::fabs(rp[j]) * (10.0 + 10.0 * ymax);
    }
    res.upperBound = primalObj + rpMargin;

    if (iter >= opts.maxIters) {
        res.status = SdpStatus::Failed;
        return res;
    }
    if (res.penalty > opts.penaltyTol) {
        res.status = SdpStatus::Infeasible;
        return res;
    }
    res.status = SdpStatus::Optimal;
    return res;
}

}  // namespace sdp
