#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace lp {

namespace {
constexpr double kFeasTol = 1e-7;    // primal feasibility tolerance
constexpr double kOptTol = 1e-7;     // reduced-cost tolerance
constexpr double kPivotTol = 1e-9;   // minimum admissible pivot magnitude
constexpr double kResidTol = 1e-8;   // drift backstop on ||A x||
// Fill-ratio refactorization policy: refactorize once the factor holds more
// than this multiple of (fresh fill + m) nonzeros. Dense-ish updates hit
// the limit quickly; sparse ones are allowed to chain much longer.
constexpr double kRefactorFillGrowth = 2.0;
constexpr double kDevexReset = 1e12;  // weight overflow -> reference reset
}  // namespace

const char* toString(SolveStatus s) {
    switch (s) {
        case SolveStatus::Optimal: return "optimal";
        case SolveStatus::Infeasible: return "infeasible";
        case SolveStatus::Unbounded: return "unbounded";
        case SolveStatus::IterLimit: return "iterlimit";
        case SolveStatus::NumericalTrouble: return "numerical";
    }
    return "?";
}

const char* toString(Pricing p) {
    switch (p) {
        case Pricing::Devex: return "devex";
        case Pricing::DSE: return "dse";
    }
    return "?";
}

void SimplexSolver::load(const LpModel& model) {
    n_ = model.numCols();
    m_ = model.numRows();
    const int tot = n_ + m_;
    cols_.assign(tot, {});
    cost_.assign(tot, 0.0);
    lb_.assign(tot, 0.0);
    ub_.assign(tot, 0.0);
    for (int j = 0; j < n_; ++j) {
        cost_[j] = model.col(j).obj;
        lb_[j] = model.col(j).lb;
        ub_[j] = model.col(j).ub;
    }
    for (int i = 0; i < m_; ++i) {
        const Row& r = model.row(i);
        for (const auto& [j, v] : r.coefs) {
            if (j < 0 || j >= n_) throw std::out_of_range("row coef column");
            if (v != 0.0) cols_[j].entries.emplace_back(i, v);
        }
        // Slack s_i with A x - s = 0, s in [lhs, rhs].
        cols_[n_ + i].entries.emplace_back(i, -1.0);
        lb_[n_ + i] = r.lhs;
        ub_[n_ + i] = r.rhs;
    }
    cscDirty_ = true;
    basisValid_ = false;
    totalIters_ = 0;
    pricingPos_ = 0;
}

void SimplexSolver::ensureCsc() {
    if (!cscDirty_) return;
    const int tot = n_ + m_;
    std::size_t nnz = 0;
    for (const SparseCol& c : cols_) nnz += c.entries.size();
    cscPtr_.assign(tot + 1, 0);
    cscRow_.resize(nnz);
    cscVal_.resize(nnz);
    std::size_t p = 0;
    for (int j = 0; j < tot; ++j) {
        cscPtr_[j] = static_cast<int>(p);
        for (const auto& [row, coef] : cols_[j].entries) {
            cscRow_[p] = row;
            cscVal_[p] = coef;
            ++p;
        }
    }
    cscPtr_[tot] = static_cast<int>(p);

    // CSR transpose via counting sort over the CSC arrays.
    csrPtr_.assign(m_ + 1, 0);
    for (std::size_t q = 0; q < nnz; ++q) ++csrPtr_[cscRow_[q] + 1];
    for (int i = 0; i < m_; ++i) csrPtr_[i + 1] += csrPtr_[i];
    csrCol_.resize(nnz);
    csrVal_.resize(nnz);
    std::vector<int> fill(csrPtr_.begin(), csrPtr_.end() - 1);
    for (int j = 0; j < tot; ++j)
        for (int q = cscPtr_[j]; q < cscPtr_[j + 1]; ++q) {
            const int at = fill[cscRow_[q]]++;
            csrCol_[at] = j;
            csrVal_[at] = cscVal_[q];
        }
    cscDirty_ = false;
}

double SimplexSolver::nonbasicValue(int j) const {
    switch (vstat_[j]) {
        case VStat::AtLower: return lb_[j];
        case VStat::AtUpper: return ub_[j];
        case VStat::FreeZero: return 0.0;
        case VStat::Basic: break;
    }
    return 0.0;  // not reached for nonbasic
}

void SimplexSolver::resetDevex() {
    devex_.assign(static_cast<std::size_t>(n_) + m_, 1.0);
}

void SimplexSolver::setupSlackBasis() {
    const int tot = n_ + m_;
    vstat_.assign(tot, VStat::AtLower);
    for (int j = 0; j < tot; ++j) {
        if (lb_[j] > -kInf)
            vstat_[j] = VStat::AtLower;
        else if (ub_[j] < kInf)
            vstat_[j] = VStat::AtUpper;
        else
            vstat_[j] = VStat::FreeZero;
    }
    basic_.resize(m_);
    // B = -I for the all-slack basis: one trivial pivot per row.
    lu_.loadSlack(m_, -1.0);
    for (int i = 0; i < m_; ++i) {
        basic_[i] = n_ + i;
        vstat_[n_ + i] = VStat::Basic;
    }
    ++numFactor_;
    resetFactorPolicy();
    resetDevex();
    // DSE weights are exactly 1 for the slack basis (B = -I).
    dseGamma_.assign(m_, 1.0);
    dseFresh_ = true;
    basisValid_ = true;
    computeBasicSolution();
}

void SimplexSolver::resetFactorPolicy() {
    baseFill_ = factorFill();
    fillLimit_ =
        static_cast<long>(kRefactorFillGrowth * static_cast<double>(baseFill_ + m_));
    updateLimit_ = std::max(64, m_);
    residInterval_ = std::clamp(m_ / 2, 16, 128);
    updatesSince_ = 0;
    factorStale_ = false;
}

void SimplexSolver::ensureSparseWork() {
    if (wVec_.dim() != m_) wVec_.reset(m_);
    if (rhoVec_.dim() != m_) rhoVec_.reset(m_);
    if (tauVec_.dim() != m_) tauVec_.reset(m_);
    if (flipVec_.dim() != m_) flipVec_.reset(m_);
    if (static_cast<int>(iota_.size()) != m_) {
        iota_.resize(m_);
        std::iota(iota_.begin(), iota_.end(), 0);
    }
}

void SimplexSolver::factFtranSparse(SparseVec& x, LuRhs cls) {
    countSolve(lu_.ftranSparse(x, cls), x);
}

void SimplexSolver::factBtranSparse(SparseVec& y, LuRhs cls) {
    countSolve(lu_.btranSparse(y, cls), y);
}

void SimplexSolver::factUpdate(int leaveRow) {
    if (lu_.update(leaveRow)) {
        ++updatesSince_;
    } else {
        // Unusable Forrest–Tomlin pivot: the factor is invalid, but basic_
        // is already correct — the pivot loop refactorizes before the next
        // FTRAN/BTRAN touches it.
        factorStale_ = true;
    }
}

void SimplexSolver::computeBasicSolution() {
    // x_B = -B^{-1} * (sum over nonbasic j: a_j * value_j)
    ensureCsc();
    std::vector<double> rhs(m_, 0.0);
    const int tot = n_ + m_;
    for (int j = 0; j < tot; ++j) {
        if (vstat_[j] == VStat::Basic) continue;
        const double v = nonbasicValue(j);
        if (v == 0.0) continue;
        for (int p = cscPtr_[j]; p < cscPtr_[j + 1]; ++p)
            rhs[cscRow_[p]] += cscVal_[p] * v;
    }
    lu_.ftran(rhs);
    xb_.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) xb_[i] = -rhs[i];
}

bool SimplexSolver::refactorize() {
    ensureCsc();
    ++numFactor_;
    auto snapped = [&](int j) {
        if (lb_[j] > -kInf) return VStat::AtLower;
        if (ub_[j] < kInf) return VStat::AtUpper;
        return VStat::FreeZero;
    };
    std::vector<int> rowOfSlot;
    bool ok = lu_.factorize(basic_, cscPtr_, cscRow_, cscVal_, rowOfSlot);
    if (!ok) {
        // Singular-basis repair: every slot the factorization could not
        // pivot gets the slack of a row no pivot claimed (the extended
        // basis is nonsingular because each slack has a lone -1 in its
        // own row). Demoted variables go to a finite bound.
        std::vector<char> used(m_, 0);
        for (int s = 0; s < m_; ++s)
            if (rowOfSlot[s] >= 0) used[rowOfSlot[s]] = 1;
        std::vector<int> freeRows;
        for (int r = 0; r < m_; ++r)
            if (!used[r] && vstat_[n_ + r] != VStat::Basic)
                freeRows.push_back(r);
        std::size_t fi = 0;
        bool repaired = true;
        for (int s = 0; s < m_; ++s) {
            if (rowOfSlot[s] >= 0) continue;
            if (fi >= freeRows.size()) {
                repaired = false;
                break;
            }
            const int r = freeRows[fi++];
            const int old = basic_[s];
            vstat_[old] = snapped(old);
            basic_[s] = n_ + r;
            vstat_[n_ + r] = VStat::Basic;
        }
        if (repaired)
            ok = lu_.factorize(basic_, cscPtr_, cscRow_, cscVal_, rowOfSlot);
        if (!ok) return false;
    }
    std::vector<int> newBasic(m_);
    for (int s = 0; s < m_; ++s) newBasic[rowOfSlot[s]] = basic_[s];
    basic_ = std::move(newBasic);
    // DSE weights are attached to the basic variable of a slot, not to the
    // matrix row, so they move with the permutation just applied to basic_.
    // Leaving them in the old order silently feeds scrambled norms to the
    // exact Forrest–Goldfarb recurrence after every refactorization.
    permuteDseGamma(rowOfSlot);
    resetFactorPolicy();
    return true;
}

void SimplexSolver::permuteDseGamma(const std::vector<int>& rowOfSlot) {
    if (static_cast<int>(dseGamma_.size()) != m_) return;
    std::vector<double> g(m_, 1.0);
    for (int s = 0; s < m_; ++s)
        if (rowOfSlot[s] >= 0) g[rowOfSlot[s]] = dseGamma_[s];
    dseGamma_ = std::move(g);
}

double SimplexSolver::solutionResidual() const {
    // ||A x - s|| over the full [structural | slack] system: exact zero for
    // a perfectly computed basic solution, grows with factor drift.
    std::vector<double> r(m_, 0.0);
    const int tot = n_ + m_;
    double scale = 1.0;
    std::vector<double> xfull(tot, 0.0);
    for (int j = 0; j < tot; ++j)
        if (vstat_[j] != VStat::Basic) xfull[j] = nonbasicValue(j);
    for (int i = 0; i < m_; ++i) xfull[basic_[i]] = xb_[i];
    for (int j = 0; j < tot; ++j) {
        const double v = xfull[j];
        if (v == 0.0) continue;
        scale = std::max(scale, std::fabs(v));
        for (int p = cscPtr_[j]; p < cscPtr_[j + 1]; ++p)
            r[cscRow_[p]] += cscVal_[p] * v;
    }
    double worst = 0.0;
    for (int i = 0; i < m_; ++i) worst = std::max(worst, std::fabs(r[i]));
    return worst / scale;
}

void SimplexSolver::priceDuals(const std::vector<double>& cb,
                               std::vector<double>& y) const {
    y = cb;
    lu_.btran(y);
}

double SimplexSolver::columnDot(int j, const std::vector<double>& y) const {
    double s = 0.0;
    for (int p = cscPtr_[j]; p < cscPtr_[j + 1]; ++p)
        s += cscVal_[p] * y[cscRow_[p]];
    return s;
}

void SimplexSolver::ftranColumn(int j, SparseVec& w) {
    w.clear();
    for (int p = cscPtr_[j]; p < cscPtr_[j + 1]; ++p)
        w.set(cscRow_[p], cscVal_[p]);
    // Caches the FT spike for the coming pivot.
    countSolve(lu_.ftranSpikeSparse(w), w);
}

void SimplexSolver::pivot(int enter, int leaveRow, const SparseVec& w,
                          double enterValue, VStat leaveTo) {
    const int leaveVar = basic_[leaveRow];
    // Incremental update of basic values: the entering variable moves by dz
    // from its nonbasic value, changing x_B by -w*dz. O(nnz w) instead of a
    // full recompute; the residual check + refactorization clear accumulated
    // drift.
    const double dz = enterValue - nonbasicValue(enter);
    forSupport(w, [&](int i) { xb_[i] -= w.val[i] * dz; });
    factUpdate(leaveRow);
    basic_[leaveRow] = enter;
    vstat_[enter] = VStat::Basic;
    vstat_[leaveVar] = leaveTo;
    xb_[leaveRow] = enterValue;
    dseFresh_ = false;  // re-earned by the dual loop's own weight update
}

double SimplexSolver::infeasibilitySum() const {
    double s = 0.0;
    for (int i = 0; i < m_; ++i) {
        const int j = basic_[i];
        if (xb_[i] < lb_[j] - kFeasTol) s += lb_[j] - xb_[i];
        if (xb_[i] > ub_[j] + kFeasTol) s += xb_[i] - ub_[j];
    }
    return s;
}

int SimplexSolver::pricePrimal(bool phase1, const std::vector<double>& y,
                               const std::vector<double>& perturb, bool bland,
                               int& sigma) {
    const int tot = n_ + m_;
    auto redCostOf = [&](int j) {
        const double cj =
            phase1 ? 0.0 : cost_[j] + (perturb.empty() ? 0.0 : perturb[j]);
        return cj - columnDot(j, y);
    };
    auto eligible = [&](int j, double d, int& sig) {
        if ((vstat_[j] == VStat::AtLower || vstat_[j] == VStat::FreeZero) &&
            d < -kOptTol) {
            sig = 1;  // entering increases from its bound
            return true;
        }
        if ((vstat_[j] == VStat::AtUpper || vstat_[j] == VStat::FreeZero) &&
            d > kOptTol) {
            sig = -1;  // entering decreases from its bound
            return true;
        }
        return false;
    };

    if (bland) {
        // Anti-cycling: lowest eligible index, full scan. Also the mode any
        // claim of optimality under degeneracy ultimately rests on.
        for (int j = 0; j < tot; ++j) {
            if (vstat_[j] == VStat::Basic) continue;
            int sig = 0;
            if (eligible(j, redCostOf(j), sig)) {
                sigma = sig;
                return j;
            }
        }
        return -1;
    }

    // Partial pricing: sweep rotating windows starting at the cursor and
    // stop at the first window holding any candidate; pick the best devex
    // score (d^2 / weight) within it. Declaring optimality requires the
    // sweep to cover every column, so -1 is still exact.
    const int window = std::max(32, tot / 8);
    int best = -1, bestSig = 0;
    double bestScore = 0.0;
    int scanned = 0;
    int pos = (tot > 0) ? pricingPos_ % tot : 0;
    while (scanned < tot) {
        const int end = std::min(pos + window, tot);
        for (int j = pos; j < end; ++j) {
            if (vstat_[j] == VStat::Basic) continue;
            const double d = redCostOf(j);
            int sig = 0;
            if (!eligible(j, d, sig)) continue;
            const double score = d * d / devex_[j];
            if (score > bestScore) {
                bestScore = score;
                best = j;
                bestSig = sig;
            }
        }
        scanned += end - pos;
        pos = (end == tot) ? 0 : end;
        if (best >= 0) break;
    }
    pricingPos_ = pos;
    sigma = bestSig;
    return best;
}

SolveStatus SimplexSolver::primalSimplex(bool phase1Allowed) {
    ensureCsc();
    ensureSparseWork();
    std::vector<double> cb(m_), y;
    SparseVec& w = wVec_;
    bool bland = false;
    int stall = 0;
    double lastMeasure = kInf;
    long iters = 0;
    int sinceCheck = 0;
    // Anti-degeneracy cost perturbation (classical): deterministic tiny
    // offsets break ties; once perturbed-optimal, the perturbation is
    // removed and optimization continues with the true costs.
    std::vector<double> perturb;
    auto costOf = [&](int j) {
        return cost_[j] + (perturb.empty() ? 0.0 : perturb[j]);
    };

    while (true) {
        if (++iters > iterLimit_) return SolveStatus::IterLimit;
        ++totalIters_;
        // Drift backstop: refactorize when the factor has outgrown its fill
        // budget (or a failed FT update marked it stale), or when the
        // periodic residual check detects that the incrementally updated
        // solution no longer satisfies A x = 0.
        if (needRefactor()) {
            if (!refactorize()) return SolveStatus::NumericalTrouble;
            computeBasicSolution();
        } else if (++sinceCheck >= residInterval_) {
            sinceCheck = 0;
            if (solutionResidual() > kResidTol) {
                if (!refactorize()) return SolveStatus::NumericalTrouble;
                computeBasicSolution();
            }
        }

        const double infeas = infeasibilitySum();
        const bool phase1 = infeas > kFeasTol * (1 + m_);
        if (phase1 && !phase1Allowed) return SolveStatus::NumericalTrouble;

        // Cost vector for pricing: real costs in phase 2, infeasibility
        // gradient in phase 1.
        if (phase1) {
            for (int i = 0; i < m_; ++i) {
                const int j = basic_[i];
                cb[i] = 0.0;
                if (xb_[i] < lb_[j] - kFeasTol) cb[i] = -1.0;
                else if (xb_[i] > ub_[j] + kFeasTol) cb[i] = 1.0;
            }
        } else {
            for (int i = 0; i < m_; ++i) cb[i] = costOf(basic_[i]);
        }
        priceDuals(cb, y);

        // Progress / stalling detection (switch to Bland's rule on stall).
        double measure;
        if (phase1) {
            measure = infeas;
        } else {
            measure = 0.0;
            for (int i = 0; i < m_; ++i) measure += cost_[basic_[i]] * xb_[i];
            const int tot = n_ + m_;
            for (int j = 0; j < tot; ++j)
                if (vstat_[j] != VStat::Basic && cost_[j] != 0.0)
                    measure += cost_[j] * nonbasicValue(j);
        }
        if (measure < lastMeasure - 1e-10) {
            stall = 0;
            bland = false;
        } else {
            ++stall;
            if (stall == 60 && !phase1 && perturb.empty()) {
                // Degenerate plateau: perturb the phase-2 costs.
                const int tot = n_ + m_;
                perturb.assign(tot, 0.0);
                for (int j = 0; j < tot; ++j) {
                    const unsigned h =
                        static_cast<unsigned>(j) * 2654435761u;
                    perturb[j] = 1e-7 * (1.0 + double(h % 1024) / 1024.0);
                }
            }
            if (stall > 500) bland = true;
        }
        lastMeasure = measure;

        // Pricing: pick entering variable.
        int sigma = 0;
        const int enter = pricePrimal(phase1, y, perturb, bland, sigma);
        if (enter < 0) {
            // No improving direction anywhere.
            if (phase1) return SolveStatus::Infeasible;
            if (!perturb.empty()) {
                // Perturbed-optimal: drop the perturbation and continue
                // with the true costs (usually a handful of extra pivots).
                perturb.clear();
                stall = 0;
                lastMeasure = kInf;
                continue;
            }
            extractSolution();
            return SolveStatus::Optimal;
        }

        ftranColumn(enter, w);

        // Two-pass ratio test: entering moves by t >= 0 in direction sigma;
        // basic values change by -sigma * w * t. Pass 1 finds the tightest
        // ratio; pass 2 picks, among rows blocking within a small tolerance
        // of it, the largest |pivot| (lowest basic index in Bland mode).
        // Preferring big pivots on degenerate ties is what keeps the factor
        // updates well conditioned: always taking the first ~0-step row can
        // chain 1e-9-sized pivots until B^{-1} (and the duals priced
        // through it) are pure noise.
        // Both passes walk only the FTRAN support: rows with w[i] == 0 have
        // |delta| < kPivotTol and never block, and the support is sorted
        // ascending so tie-breaks see rows in the same order a dense scan
        // would.
        auto rowRatio = [&](int i, double& ti, VStat& to) {
            const double delta = -sigma * w.val[i];
            ti = kInf;
            to = VStat::AtLower;
            if (std::fabs(delta) < kPivotTol) return;
            const int j = basic_[i];
            const bool belowLb = xb_[i] < lb_[j] - kFeasTol;
            const bool aboveUb = xb_[i] > ub_[j] + kFeasTol;
            if (delta > 0.0) {
                // basic value increases
                if (belowLb) {
                    ti = (lb_[j] - xb_[i]) / delta;  // reaches feasibility
                    to = VStat::AtLower;
                } else if (!aboveUb && ub_[j] < kInf) {
                    ti = (ub_[j] - xb_[i]) / delta;
                    to = VStat::AtUpper;
                }
                // above-ub basics moving further up never block (phase 1
                // accounts for their worsening in the reduced costs)
                if (aboveUb) ti = kInf;
            } else {
                // basic value decreases
                if (aboveUb) {
                    ti = (ub_[j] - xb_[i]) / delta;
                    to = VStat::AtUpper;
                } else if (!belowLb && lb_[j] > -kInf) {
                    ti = (lb_[j] - xb_[i]) / delta;
                    to = VStat::AtLower;
                }
                if (belowLb) ti = kInf;
            }
            if (ti < 0.0) ti = 0.0;
        };
        // Pass 1: tightest ratio (bound flip of the entering variable
        // itself included).
        double tLimit = kInf;
        if (lb_[enter] > -kInf && ub_[enter] < kInf)
            tLimit = ub_[enter] - lb_[enter];
        forSupport(w, [&](int i) {
            double ti;
            VStat to;
            rowRatio(i, ti, to);
            if (ti < tLimit) tLimit = ti;
        });
        // Pass 2: best blocking row within tolerance of the limit.
        const double tTol = 1e-9 + 1e-7 * std::min(tLimit, 1.0);
        double tMax = tLimit;
        int leaveRow = -1;
        VStat leaveTo = VStat::AtLower;
        double bestPivot = 0.0;
        forSupport(w, [&](int i) {
            double ti;
            VStat to;
            rowRatio(i, ti, to);
            if (ti > tLimit + tTol) return;
            if (bland) {
                if (leaveRow < 0 || basic_[i] < basic_[leaveRow]) {
                    leaveRow = i;
                    leaveTo = to;
                    tMax = ti;
                }
            } else if (std::fabs(w.val[i]) > bestPivot) {
                bestPivot = std::fabs(w.val[i]);
                leaveRow = i;
                leaveTo = to;
                tMax = ti;
            }
        });
        if (leaveRow >= 0) tMax = std::min(tMax, tLimit);

        if (tMax >= kInf) {
            if (phase1) {
                // Entering improves infeasibility without bound: cannot
                // happen for consistent data; treat as numerical trouble.
                return SolveStatus::NumericalTrouble;
            }
            return SolveStatus::Unbounded;
        }

        if (leaveRow < 0) {
            // Bound flip: entering variable moves to its other bound; the
            // basic values shift by -sigma*w*t (incremental).
            vstat_[enter] = (sigma > 0) ? VStat::AtUpper : VStat::AtLower;
            forSupport(w, [&](int i) { xb_[i] -= sigma * w.val[i] * tMax; });
            continue;
        }

        // Devex reference-weight update (cheap variant): the entering
        // column's exact steepest-edge weight ||B^{-1} a_q||^2 is a free
        // byproduct of the FTRAN; the leaving variable inherits it scaled
        // by the pivot. Other weights stay stale until the next reset.
        double wNorm2 = 0.0;
        forSupport(w, [&](int i) { wNorm2 += w.val[i] * w.val[i]; });
        const double alphaR = w.val[leaveRow];
        const double gammaQ = std::max(devex_[enter], wNorm2);
        const int leaveVar = basic_[leaveRow];
        devex_[leaveVar] = std::max(1.0, gammaQ / (alphaR * alphaR));
        devex_[enter] = 1.0;
        if (devex_[leaveVar] > kDevexReset) resetDevex();

        const double enterValue = nonbasicValue(enter) + sigma * tMax;
        pivot(enter, leaveRow, w, enterValue, leaveTo);
    }
}

SolveStatus SimplexSolver::dualSimplex() {
    ensureCsc();
    ensureSparseWork();
    const int tot = n_ + m_;
    std::vector<double> cb(m_), y;
    SparseVec& w = wVec_;
    SparseVec& rho = rhoVec_;
    struct DualCand {
        int j;
        double alpha, ratio;
    };
    std::vector<DualCand> cand;
    std::vector<int> flips;  // columns passed (bound-flipped) by long steps
    std::vector<std::pair<int, double>> alphas;  // (j, rho.a_j), all nonbasic
    std::vector<double> alphaAcc(tot, 0.0);      // scatter accumulator
    std::vector<int> touched;
    // Dual row weights gamma[i] ~ ||B^{-T} e_i||^2, the steepest-edge norm
    // of row i. Selecting the leaving row by viol^2 / gamma instead of raw
    // violation favors rows whose dual direction is short, which cuts the
    // pivot count on the box-bounded cut LPs the tree produces.
    //   * Devex (default): approximate weights updated from the entering
    //     column's FTRAN — no extra solves.
    //   * DSE: exact weights maintained by the Forrest–Goldfarb recurrence
    //     at one extra sparse FTRAN (tau = B^{-1} rho) per pivot.
    // DSE weights persist in dseGamma_ across resolves while the basis is
    // unchanged (dseFresh_; refactorizations permute them with basic_) —
    // restarting at all-1 would throw away exact norms the FG recurrence
    // paid an FTRAN apiece to maintain. Devex deliberately restarts at the
    // reference framework every call: its update only ever *raises* weights
    // (a max ratchet), so persisted devex weights inflate across resolves
    // and were measured slightly worse than a clean restart. The shared
    // member array is still used (no per-resolve allocation); weightsRule_
    // keeps devex approximations from ever seeding the exact recurrence.
    const bool useDse = pricing_ == Pricing::DSE;
    if (!useDse || !dseFresh_ || weightsRule_ != pricing_ ||
        static_cast<int>(dseGamma_.size()) != m_)
        dseGamma_.assign(m_, 1.0);  // reference framework / slack-exact
    weightsRule_ = pricing_;
    std::vector<double>& gamma = dseGamma_;
    long iters = 0;
    int sinceCheck = 0;
    bool bland = false;
    int stall = 0;
    double lastInfeas = kInf;

    // Reduced costs are maintained incrementally across pivots (the rho row
    // used by the ratio test doubles as the dual update direction), so the
    // per-iteration full BTRAN for y disappears; a refactorization recomputes
    // them from scratch, which also clears accumulated drift.
    std::vector<double> d(tot, 0.0);
    auto recomputeDuals = [&]() {
        for (int i = 0; i < m_; ++i) cb[i] = cost_[basic_[i]];
        priceDuals(cb, y);
        for (int j = 0; j < tot; ++j)
            d[j] = (vstat_[j] == VStat::Basic)
                       ? 0.0
                       : cost_[j] - columnDot(j, y);
    };
    recomputeDuals();

    while (true) {
        if (++iters > iterLimit_) return SolveStatus::IterLimit;
        ++totalIters_;
        if (needRefactor()) {
            if (!refactorize()) return SolveStatus::NumericalTrouble;
            computeBasicSolution();
            recomputeDuals();
        } else if (++sinceCheck >= residInterval_) {
            sinceCheck = 0;
            if (solutionResidual() > kResidTol) {
                if (!refactorize()) return SolveStatus::NumericalTrouble;
                computeBasicSolution();
                recomputeDuals();
            }
        }

        // Select leaving row: largest devex-weighted primal bound violation
        // viol^2 / gamma. The same scan accumulates the total infeasibility
        // the stall detector needs, so no separate O(m) infeasibilitySum()
        // pass runs per iteration.
        int leaveRow = -1;
        double bestScore = 0.0;
        double infeas = 0.0;
        bool leaveToUpper = false;
        for (int i = 0; i < m_; ++i) {
            const int j = basic_[i];
            const double below = lb_[j] - xb_[i];
            const double above = xb_[i] - ub_[j];
            double viol = std::max(below, above);
            if (viol <= kFeasTol) continue;
            infeas += viol;
            if (bland) {
                if (leaveRow < 0) {
                    leaveRow = i;
                    leaveToUpper = above > below;
                }
            } else {
                const double score = viol * viol / gamma[i];
                if (score > bestScore) {
                    bestScore = score;
                    leaveRow = i;
                    leaveToUpper = above > below;
                }
            }
        }
        if (leaveRow < 0) {
            // Primal feasible; polish with phase-2 primal (confirms/regains
            // optimality in a handful of iterations).
            return primalSimplex(/*phase1Allowed=*/false);
        }
        if (infeas < lastInfeas - 1e-10) {
            stall = 0;
            bland = false;
        } else if (++stall > 300) {
            bland = true;
        }
        lastInfeas = infeas;

        // Row leaveRow of B^{-1} A over nonbasic columns: rho = B^{-T} e_r,
        // then alpha_j = rho . a_j. The unit right-hand side is the
        // hyper-sparse sweet spot: the reach kernel touches only the rows
        // e_r can influence through the factor.
        rho.clear();
        rho.set(leaveRow, 1.0);
        factBtranSparse(rho);
        const int leaveVar = basic_[leaveRow];
        const double target = leaveToUpper ? ub_[leaveVar] : lb_[leaveVar];
        // Leaving basic must move toward target:
        //   xb_r changes by -alpha_j * dz_j for entering j.
        const bool needIncrease = !leaveToUpper;  // below lb -> increase

        // Two-pass dual ratio test (same rationale as the primal one: on
        // tied ratios take the largest |alpha| so the factor update stays
        // well conditioned).
        auto dualEligible = [&](int j, double alpha) {
            // dz_j = sig * t (t>0); xb_r changes by -alpha * sig * t.
            if (needIncrease) {
                if ((vstat_[j] == VStat::AtLower ||
                     vstat_[j] == VStat::FreeZero) &&
                    alpha < 0)
                    return 1;
                if ((vstat_[j] == VStat::AtUpper ||
                     vstat_[j] == VStat::FreeZero) &&
                    alpha > 0)
                    return -1;
            } else {
                if ((vstat_[j] == VStat::AtLower ||
                     vstat_[j] == VStat::FreeZero) &&
                    alpha > 0)
                    return 1;
                if ((vstat_[j] == VStat::AtUpper ||
                     vstat_[j] == VStat::FreeZero) &&
                    alpha < 0)
                    return -1;
            }
            return 0;
        };
        // alpha_j for every column hit by rho, via one CSR scatter over the
        // BTRAN support: touches only the nonzeros of rows where rho != 0
        // instead of scanning all m_ rows for them first. The support is
        // sorted ascending, so the accumulation (and hence `touched`) order
        // matches what the dense row sweep produced.
        cand.clear();
        alphas.clear();
        touched.clear();
        forSupport(rho, [&](int i) {
            const double ri = rho.val[i];
            if (ri == 0.0) return;
            for (int p = csrPtr_[i]; p < csrPtr_[i + 1]; ++p) {
                const int j = csrCol_[p];
                if (alphaAcc[j] == 0.0) touched.push_back(j);
                alphaAcc[j] += ri * csrVal_[p];
            }
        });
        double bestRatio = kInf;
        int bestIdx = -1;  // first candidate attaining bestRatio
        for (int j : touched) {
            const double alpha = alphaAcc[j];
            alphaAcc[j] = 0.0;  // leave the accumulator clean for next pivot
            if (alpha == 0.0 || vstat_[j] == VStat::Basic) continue;
            alphas.emplace_back(j, alpha);  // for the incremental d update
            if (std::fabs(alpha) < kPivotTol) continue;
            if (dualEligible(j, alpha) == 0) continue;
            const double ratio = std::fabs(d[j]) / std::fabs(alpha);
            if (ratio < bestRatio) {
                bestRatio = ratio;
                bestIdx = static_cast<int>(cand.size());
            }
            cand.push_back({j, alpha, ratio});
        }
        // Long-step (bound-flip) ratio test: walking the candidates in
        // ratio order, a boxed candidate whose zero crossing theta passes
        // can simply jump to its other bound — its reduced cost changes
        // sign, which is dual feasible at the opposite bound — as long as
        // the aggregate primal movement of all flips does not overshoot the
        // leaving row's target. Each flip shrinks the remaining violation
        // ("slope" of the dual objective) by |alpha_j| * box width; the
        // first candidate that cannot be passed enters the basis. One dual
        // iteration thereby absorbs what plain ratio testing would spend a
        // pivot (FTRAN + BTRAN + factor update) apiece on — the dominant
        // win on the 0/1-box cut LPs this solver exists for. Flipped
        // columns are corrected in x_B with a single aggregated FTRAN.
        // Disabled under Bland's rule, whose anti-cycling argument needs
        // the plain lowest-index pivot.
        int enter = -1;
        double enterAlpha = 0.0;
        flips.clear();
        // Cheap gate first: the ordered walk only matters when the
        // smallest-ratio candidate itself can be passed; on most pivots it
        // cannot (unboxed slack, or its flip would already overshoot), and
        // the plain two-scan test below runs with zero ordering cost.
        bool longStep = false;
        if (!bland && bestIdx >= 0) {
            const double w0 =
                std::max(ub_[cand[bestIdx].j] - lb_[cand[bestIdx].j], 0.0);
            longStep = w0 < kInf &&
                       std::fabs(xb_[leaveRow] - target) -
                               std::fabs(cand[bestIdx].alpha) * w0 >
                           kFeasTol;
        }
        if (longStep) {
            // Min-ratio heap instead of a full sort: the walk usually stops
            // after a handful of flips, so ordering the whole candidate set
            // would be wasted work on every pivot.
            auto byRatioDesc = [](const DualCand& a, const DualCand& b) {
                return a.ratio > b.ratio;
            };
            std::make_heap(cand.begin(), cand.end(), byRatioDesc);
            auto end = cand.end();
            double slope = std::fabs(xb_[leaveRow] - target);
            double stopRatio = kInf;
            while (cand.begin() != end) {
                const DualCand& top = cand.front();
                const double width = std::max(ub_[top.j] - lb_[top.j], 0.0);
                const double drop = std::fabs(top.alpha) * width;
                if (!(width < kInf) || slope - drop <= kFeasTol) {
                    stopRatio = top.ratio;
                    break;
                }
                slope -= drop;
                flips.push_back(top.j);
                std::pop_heap(cand.begin(), end, byRatioDesc);
                --end;
            }
            if (cand.begin() == end) {
                // Even flipping every candidate leaves the row violated —
                // a dual ray. Fall back to the plain smallest-ratio pivot
                // so the infeasibility verdict is reached by the standard
                // (tolerance-hardened) path rather than declared here.
                flips.clear();
                longStep = false;
            } else {
                // Tie-break among near-equal stop ratios by largest |alpha|
                // (numerical stability); successive heap pops visit the
                // tolerance band in ascending ratio order.
                const double ratioTol =
                    1e-9 + 1e-7 * std::min(stopRatio, 1.0);
                while (cand.begin() != end &&
                       cand.front().ratio <= stopRatio + ratioTol) {
                    if (std::fabs(cand.front().alpha) >
                        std::fabs(enterAlpha)) {
                        enterAlpha = cand.front().alpha;
                        enter = cand.front().j;
                    }
                    std::pop_heap(cand.begin(), end, byRatioDesc);
                    --end;
                }
            }
        }
        if (!longStep) {
            const double ratioTol = 1e-9 + 1e-7 * std::min(bestRatio, 1.0);
            for (const DualCand& c : cand) {
                if (c.ratio > bestRatio + ratioTol) continue;
                if (bland) {
                    if (enter < 0 || c.j < enter) {
                        enter = c.j;
                        enterAlpha = c.alpha;
                    }
                } else if (std::fabs(c.alpha) > std::fabs(enterAlpha)) {
                    enterAlpha = c.alpha;
                    enter = c.j;
                }
            }
        }
        if (enter < 0) {
            // Dual unbounded -> primal infeasible.
            return SolveStatus::Infeasible;
        }

        if (!flips.empty()) {
            // Move every passed column to its other bound and shift x_B by
            // -B^{-1} (sum a_j * delta_j), one FTRAN for the whole batch.
            // Runs before the DSE/entering FTRANs below so the cached FT
            // spike belonging to the entering column is not clobbered.
            flipVec_.clear();
            for (int j : flips) {
                double delta = ub_[j] - lb_[j];
                if (vstat_[j] == VStat::AtLower) {
                    vstat_[j] = VStat::AtUpper;
                } else {
                    vstat_[j] = VStat::AtLower;
                    delta = -delta;
                }
                if (delta == 0.0) continue;
                for (int p = cscPtr_[j]; p < cscPtr_[j + 1]; ++p) {
                    const int r = cscRow_[p];
                    flipVec_.touch(r);
                    flipVec_.val[r] += cscVal_[p] * delta;
                }
            }
            factFtranSparse(flipVec_, LuRhs::Flip);
            forSupport(flipVec_,
                       [&](int i) { xb_[i] -= flipVec_.val[i]; });
        }

        const double alphaE = enterAlpha;
        const double dz = (xb_[leaveRow] - target) / alphaE;

        // DSE needs tau = B^{-1} rho before w overwrites the work vectors;
        // the FTRAN below then re-caches the FT spike for factUpdate.
        double rhoNorm2 = 0.0;
        if (useDse) {
            forSupport(rho,
                       [&](int i) { rhoNorm2 += rho.val[i] * rho.val[i]; });
            tauVec_.clear();
            if (rho.dense) {
                tauVec_.val = rho.val;
                tauVec_.dense = true;  // idx empty + flags clear after clear()
            } else {
                for (int i : rho.idx) tauVec_.set(i, rho.val[i]);
            }
            // tau carries the pricing row back through FTRAN — its density
            // tracks rho's, not an entering column's, so it shares the Row
            // controller.
            factFtranSparse(tauVec_, LuRhs::Row);
        }
        ftranColumn(enter, w);
        const double enterValue = nonbasicValue(enter) + dz;

        if (useDse) {
            // Exact steepest-edge update (Forrest–Goldfarb):
            //   gamma_r' = ||rho||^2 / alpha_r^2
            //   gamma_i' = gamma_i - 2 (w_i/alpha_r) tau_i
            //              + (w_i/alpha_r)^2 ||rho||^2      (i != r, w_i != 0)
            // with w = B^{-1} a_q and tau = B^{-1} rho. The pivot row's new
            // weight uses the exactly recomputed ||rho||^2, so any
            // initialization error dies off as rows pivot.
            const double ar = std::fabs(w.val[leaveRow]) > 1e-12
                                  ? w.val[leaveRow]
                                  : alphaE;
            forSupport(w, [&](int i) {
                if (i == leaveRow) return;
                const double k = w.val[i] / ar;
                if (k == 0.0) return;
                const double g =
                    gamma[i] - 2.0 * k * tauVec_.val[i] + k * k * rhoNorm2;
                gamma[i] = std::max(g, 1e-10);
            });
            gamma[leaveRow] = std::max(rhoNorm2 / (ar * ar), 1e-10);
        } else {
            // Devex weight update from the entering column (the dual
            // analogue of the primal scheme): rows moved by the pivot
            // inherit the pivot row's weight scaled by their step, and the
            // pivot row's own weight shrinks by the pivot element squared.
            const double ar = std::fabs(w.val[leaveRow]) > 1e-12
                                  ? w.val[leaveRow]
                                  : alphaE;
            const double gammaR = std::max(gamma[leaveRow], 1.0);
            const double scale = gammaR / (ar * ar);
            forSupport(w, [&](int i) {
                if (w.val[i] == 0.0 || i == leaveRow) return;
                const double cndt = w.val[i] * w.val[i] * scale;
                if (cndt > gamma[i]) gamma[i] = cndt;
            });
            gamma[leaveRow] = std::max(scale, 1.0);
            if (gamma[leaveRow] > kDevexReset) gamma.assign(m_, 1.0);
        }

        // Incremental dual update: d'_j = d_j - theta * alpha_j with
        // theta = d_enter / alpha_enter. The leaving variable has
        // alpha = rho . a_leaveVar = e_r^T e_r = 1, so it lands at -theta.
        const double theta = d[enter] / alphaE;
        if (theta != 0.0)
            for (const auto& [j, a] : alphas) d[j] -= theta * a;
        d[enter] = 0.0;
        d[leaveVar] = -theta;

        pivot(enter, leaveRow, w, enterValue,
              leaveToUpper ? VStat::AtUpper : VStat::AtLower);
        // The weight update above already describes the post-pivot basis
        // (both rules); re-validate what pivot() just invalidated.
        dseFresh_ = true;
    }
}

namespace {
/// Branching can produce an empty variable box (lb > ub); detect it early.
bool hasCrossedBounds(const std::vector<double>& lb,
                      const std::vector<double>& ub) {
    for (std::size_t j = 0; j < lb.size(); ++j)
        if (lb[j] > ub[j] + kFeasTol) return true;
    return false;
}
}  // namespace

SolveStatus SimplexSolver::solve() {
    if (hasCrossedBounds(lb_, ub_)) return SolveStatus::Infeasible;
    ensureCsc();
    setupSlackBasis();
    SolveStatus st = primalSimplex(/*phase1Allowed=*/true);
    if (st == SolveStatus::NumericalTrouble) {
        // One retry with a fresh factorization.
        setupSlackBasis();
        st = primalSimplex(true);
    }
    return st;
}

SolveStatus SimplexSolver::addRowsAndResolve(const std::vector<Row>& rows) {
    if (rows.empty()) return resolve();
    const int mOld = m_;
    for (std::size_t k = 0; k < rows.size(); ++k) {
        const Row& r = rows[k];
        const int i = mOld + static_cast<int>(k);
        for (const auto& [j, v] : r.coefs) {
            if (j < 0 || j >= n_) throw std::out_of_range("cut column index");
            if (v != 0.0) cols_[j].entries.emplace_back(i, v);
        }
        SparseCol slack;
        slack.entries.emplace_back(i, -1.0);
        cols_.push_back(std::move(slack));
        cost_.push_back(0.0);
        lb_.push_back(r.lhs);
        ub_.push_back(r.rhs);
    }
    m_ = mOld + static_cast<int>(rows.size());
    cscDirty_ = true;

    if (!basisValid_) return solve();

    // Extend the basis with the new rows' slacks (B_new = [[B,0],[G,-I]] is
    // nonsingular whenever B is) and refactorize; the dual simplex then
    // drives out any violated new slacks.
    for (int i = mOld; i < m_; ++i) {
        vstat_.push_back(VStat::Basic);
        basic_.push_back(n_ + i);
    }
    devex_.resize(static_cast<std::size_t>(n_) + m_, 1.0);
    dseFresh_ = false;  // row set changed: DSE weights must restart
    if (!refactorize()) {
        setupSlackBasis();
        return primalSimplex(true);
    }
    computeBasicSolution();
    SolveStatus st = dualSimplex();
    if (st == SolveStatus::NumericalTrouble || st == SolveStatus::IterLimit) {
        setupSlackBasis();
        st = primalSimplex(true);
    }
    return st;
}

void SimplexSolver::changeBounds(int col, double lb, double ub) {
    lb_[col] = lb;
    ub_[col] = ub;
    if (!basisValid_ || vstat_[col] == VStat::Basic) return;
    // Re-snap nonbasic status to a consistent finite bound.
    if (vstat_[col] == VStat::AtLower && lb <= -kInf)
        vstat_[col] = (ub < kInf) ? VStat::AtUpper : VStat::FreeZero;
    else if (vstat_[col] == VStat::AtUpper && ub >= kInf)
        vstat_[col] = (lb > -kInf) ? VStat::AtLower : VStat::FreeZero;
}

SolveStatus SimplexSolver::resolve() {
    if (hasCrossedBounds(lb_, ub_)) return SolveStatus::Infeasible;
    if (!basisValid_) return solve();
    computeBasicSolution();
    SolveStatus st = dualSimplex();
    if (st == SolveStatus::NumericalTrouble || st == SolveStatus::IterLimit) {
        setupSlackBasis();
        st = primalSimplex(true);
    }
    return st;
}

Basis SimplexSolver::basis() const {
    Basis b;
    if (!basisValid_) return b;
    b.cols = n_;
    b.rows = m_;
    b.status.assign(vstat_.begin(), vstat_.end());
    return b;
}

bool SimplexSolver::loadBasis(const Basis& b) {
    if (!b.valid() || b.cols != n_) return false;
    const int tot = n_ + m_;
    std::vector<VStat> vs(tot);
    for (int j = 0; j < n_; ++j) vs[j] = b.status[j];
    // Rows added since the snapshot get their slack basic; statuses of rows
    // that no longer exist are dropped.
    for (int i = 0; i < m_; ++i)
        vs[n_ + i] = (i < b.rows) ? b.status[b.cols + i] : VStat::Basic;
    // Snap nonbasic statuses to the *current* bounds (branching may have
    // changed them since the snapshot was taken).
    for (int j = 0; j < tot; ++j) {
        if (vs[j] == VStat::Basic) continue;
        if (vs[j] == VStat::AtLower && lb_[j] <= -kInf)
            vs[j] = (ub_[j] < kInf) ? VStat::AtUpper : VStat::FreeZero;
        else if (vs[j] == VStat::AtUpper && ub_[j] >= kInf)
            vs[j] = (lb_[j] > -kInf) ? VStat::AtLower : VStat::FreeZero;
        else if (vs[j] == VStat::FreeZero && lb_[j] > -kInf)
            vs[j] = VStat::AtLower;
        else if (vs[j] == VStat::FreeZero && ub_[j] < kInf)
            vs[j] = VStat::AtUpper;
    }
    // The basic set must have exactly m_ members: demote surplus basics
    // (slacks first, from the back) and promote nonbasic slacks to fill.
    int nbasic = 0;
    for (int j = 0; j < tot; ++j)
        if (vs[j] == VStat::Basic) ++nbasic;
    auto snapped = [&](int j) {
        if (lb_[j] > -kInf) return VStat::AtLower;
        if (ub_[j] < kInf) return VStat::AtUpper;
        return VStat::FreeZero;
    };
    for (int j = tot - 1; j >= n_ && nbasic > m_; --j)
        if (vs[j] == VStat::Basic) {
            vs[j] = snapped(j);
            --nbasic;
        }
    for (int j = n_ - 1; j >= 0 && nbasic > m_; --j)
        if (vs[j] == VStat::Basic) {
            vs[j] = snapped(j);
            --nbasic;
        }
    for (int i = 0; i < m_ && nbasic < m_; ++i)
        if (vs[n_ + i] != VStat::Basic) {
            vs[n_ + i] = VStat::Basic;
            ++nbasic;
        }
    if (nbasic != m_) return false;

    std::vector<int> newBasic;
    newBasic.reserve(m_);
    for (int j = 0; j < tot; ++j)
        if (vs[j] == VStat::Basic) newBasic.push_back(j);
    std::vector<VStat> savedStat = vstat_;
    std::vector<int> savedBasic = basic_;
    vstat_ = std::move(vs);
    basic_ = std::move(newBasic);
    if (!refactorize()) {
        // Singular snapshot (cuts/rows changed underneath): roll back so a
        // subsequent resolve() can still use whatever basis was held.
        vstat_ = std::move(savedStat);
        basic_ = std::move(savedBasic);
        if (basisValid_ && !refactorize()) basisValid_ = false;
        return false;
    }
    resetDevex();
    dseFresh_ = false;  // arbitrary loaded basis: DSE weights unknown
    basisValid_ = true;
    computeBasicSolution();
    return true;
}

void SimplexSolver::extractSolution() {
    primalX_.assign(n_, 0.0);
    const int tot = n_ + m_;
    std::vector<double> full(tot, 0.0);
    for (int j = 0; j < tot; ++j)
        if (vstat_[j] != VStat::Basic) full[j] = nonbasicValue(j);
    for (int i = 0; i < m_; ++i) full[basic_[i]] = xb_[i];
    for (int j = 0; j < n_; ++j) primalX_[j] = full[j];

    std::vector<double> cb(m_);
    for (int i = 0; i < m_; ++i) cb[i] = cost_[basic_[i]];
    priceDuals(cb, dualY_);

    redCost_.assign(n_, 0.0);
    for (int j = 0; j < n_; ++j)
        redCost_[j] = cost_[j] - columnDot(j, dualY_);

    obj_ = 0.0;
    for (int j = 0; j < n_; ++j) obj_ += cost_[j] * primalX_[j];
}

}  // namespace lp
