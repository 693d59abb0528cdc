#include "lp/lu.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

namespace lp {

namespace {
/// Markowitz search examines the active columns whose count is within this
/// slack of the minimum (capped at kMaxSearchCols) — enough to find a
/// low-fill stable pivot without rescanning the whole active matrix.
constexpr int kCountSlack = 1;
constexpr int kMaxSearchCols = 16;

// Hyper-sparse fallback hysteresis: below kHyperMinDim the dense loops win
// outright; otherwise a per-direction EWMA of the result density switches to
// the dense path above kHyperEnter and back to the reach kernel only once it
// has fallen below kHyperReenter, so a workload sitting near the threshold
// does not flap between kernels every solve.
constexpr int kHyperMinDim = 32;
constexpr double kHyperEnter = 0.30;
constexpr double kHyperReenter = 0.15;
constexpr double kHyperEwmaDecay = 0.95;
}  // namespace

void LuFactor::clear(int m) {
    m_ = m;
    valid_ = false;
    updates_ = 0;
    lPiv_.clear();
    lStart_.assign(1, 0);
    lRow_.clear();
    lVal_.clear();
    Udiag_.assign(m, 0.0);
    // Keep inner-vector capacities across refactorizations: U's sparsity
    // pattern is stable between consecutive factorizations of a slowly
    // changing basis, so reusing the buffers makes steady-state
    // refactorization allocation-free.
    const int keep = std::min<int>(m, static_cast<int>(Ucol_.size()));
    Ucol_.resize(m);
    Urow_.resize(m);
    for (int i = 0; i < keep; ++i) {
        Ucol_[i].clear();
        Urow_[i].clear();
    }
    rowOfId_.assign(m, -1);
    idAtRow_.assign(m, -1);
    order_.resize(m);
    posOf_.resize(m);
    for (int i = 0; i < m; ++i) {
        order_[i] = i;
        posOf_[i] = i;
    }
    uFill_ = 0;
    spike_.assign(m, 0.0);
    spikeValid_ = false;
    // spike_ is all zeros, which the empty spikeIdx_ describes exactly.
    spikeIdx_.clear();
    spikeSparse_ = true;
    alpha_.assign(m, 0.0);
    const int keepL = std::min<int>(m, static_cast<int>(lOpsOfRow_.size()));
    lOpsOfRow_.resize(m);
    lOpsOfTarget_.resize(m);
    for (int i = 0; i < keepL; ++i) {
        lOpsOfRow_[i].clear();
        lOpsOfTarget_[i].clear();
    }
    opQueued_.clear();
    elimQueued_.assign(m, 0);
    reachMark_.assign(m, 0);
    lOpsValid_ = true;
}

void LuFactor::FactorWork::reset(int m) {
    const int keep = std::min<int>(m, static_cast<int>(col.size()));
    col.resize(m);
    rowCols.resize(m);
    urow.resize(m);
    for (int i = 0; i < keep; ++i) {
        col[i].clear();
        rowCols[i].clear();
        urow[i].clear();
    }
    rowCount.assign(m, 0);
    colCount.assign(m, 0);
    rowDone.assign(m, 0);
    colDone.assign(m, 0);
    tiny.assign(m, 0);
    pivRow.assign(m, -1);
    pivSlot.assign(m, -1);
    pivVal.assign(m, 0.0);
    acc.assign(m, 0.0);
    mark.assign(m, 0);
    seenSlot.assign(m, 0);
    idxOfRow.assign(m, -1);
    pattern.clear();
    cand.clear();
    singles.clear();
    active.resize(m);
    for (int s = 0; s < m; ++s) active[s] = s;
    idOfSlot.assign(m, -1);
    touched = 0;
}

void LuFactor::loadSlack(int m, double diag) {
    clear(m);
    for (int i = 0; i < m; ++i) {
        Udiag_[i] = diag;
        rowOfId_[i] = i;
        idAtRow_[i] = i;
    }
    valid_ = true;
}

void LuFactor::eraseEntry(std::vector<UEnt>& v, int id) {
    for (auto it = v.begin(); it != v.end(); ++it) {
        if (it->id == id) {
            *it = v.back();
            v.pop_back();
            return;
        }
    }
}

void LuFactor::appendLOp(int pivotRow) {
    lPiv_.push_back(pivotRow);
    lStart_.push_back(lRow_.size());
}

void LuFactor::rebuildLOps() {
    for (auto& v : lOpsOfRow_) v.clear();
    for (auto& v : lOpsOfTarget_) v.clear();
    const std::size_t ops = lPiv_.size();
    for (std::size_t e = 0; e < ops; ++e) {
        lOpsOfRow_[lPiv_[e]].push_back(static_cast<int>(e));
        for (std::size_t q = lStart_[e]; q < lStart_[e + 1]; ++q)
            lOpsOfTarget_[lRow_[q]].push_back(static_cast<int>(e));
    }
    lOpsValid_ = true;
}

bool LuFactor::factorize(const std::vector<int>& basic,
                         const std::vector<int>& cscPtr,
                         const std::vector<int>& cscRow,
                         const std::vector<double>& cscVal,
                         std::vector<int>& rowOfSlot) {
    const int m = static_cast<int>(basic.size());
    clear(m);
    rowOfSlot.assign(m, -1);

    // Active-matrix working copy, column-wise, plus a row -> (column, entry
    // index) map whose records the entries point back to. A pivot row
    // leaves the columns lazily: its entries stay until the column's next
    // rank-1 update, and every reader skips entries of done rows. The
    // other entries of a column, in storage order, are the column of the
    // active matrix. rowCols may hold stale records (an entry dropped below
    // kLuDropTol keeps its record, and a later fill-in of the same row adds
    // a second one); consumers verify the row of the entry they reach.
    work_.reset(m);
    auto& col = work_.col;
    auto& rowCols = work_.rowCols;
    auto& rowCount = work_.rowCount;
    auto& colCount = work_.colCount;
    auto& rowDone = work_.rowDone;
    auto& colDone = work_.colDone;
    auto& tiny = work_.tiny;
    long& touched = work_.touched;
    auto live = [&](const ColEnt& e) { return !rowDone[e.row]; };
    // Singleton-column stack: a column with exactly one active entry is a
    // zero-fill pivot with a trivially satisfied stability test. Basis
    // matrices here are near-triangular (slacks + sparse cut columns), so
    // popping singletons resolves most steps in O(1) and the Markowitz scan
    // below only runs on the irreducible core. Entries are lazily
    // validated on pop (a slot may have been pivoted or refilled since).
    auto& singles = work_.singles;
    for (int s = 0; s < m; ++s) {
        const int j = basic[s];
        for (int p = cscPtr[j]; p < cscPtr[j + 1]; ++p) {
            const int r = cscRow[p];
            col[s].push_back({r, static_cast<int>(rowCols[r].size()),
                              cscVal[p]});
            rowCols[r].push_back({s, static_cast<int>(col[s].size()) - 1});
            ++rowCount[r];
            if (!(std::fabs(cscVal[p]) > kLuDropTol)) tiny[s] = 1;
        }
        colCount[s] = static_cast<int>(col[s].size());
        if (colCount[s] == 1) singles.push_back(s);
    }

    // Per-pivot recordings (translated into final storage on success).
    auto& urow = work_.urow;  // (slot, val)
    auto& pivRow = work_.pivRow;
    auto& pivSlot = work_.pivSlot;
    auto& pivVal = work_.pivVal;

    auto& acc = work_.acc;
    auto& mark = work_.mark;
    auto& idxOfRow = work_.idxOfRow;
    auto& pattern = work_.pattern;
    auto& seenSlot = work_.seenSlot;
    auto& cand = work_.cand;
    auto& active = work_.active;

    // Rank-1 update of column c2 by the L column [lb, le) scaled by u. The
    // column is rebuilt in place: its other entries in their order, then
    // fill-in in L order, dropping entries of done rows and values at or
    // below kLuDropTol; each moved entry's rowCols record follows it.
    auto updateColumn = [&](int c2, double u, std::size_t lb, std::size_t le) {
        auto& cv = col[c2];
        touched += static_cast<long>(cv.size());
        pattern.clear();
        for (const auto& e : cv) {
            if (rowDone[e.row]) continue;
            acc[e.row] = e.val;
            mark[e.row] = 2;  // pre-existing entry
            idxOfRow[e.row] = e.ref;
            pattern.push_back(e.row);
        }
        for (std::size_t q = lb; q < le; ++q) {
            const int r2 = lRow_[q];
            acc[r2] -= lVal_[q] * u;
            if (!mark[r2]) {
                mark[r2] = 1;  // fill-in
                pattern.push_back(r2);
            }
        }
        cv.clear();
        for (int r2 : pattern) {
            const bool keep = std::fabs(acc[r2]) > kLuDropTol;
            if (keep) {
                const int at = static_cast<int>(cv.size());
                if (mark[r2] == 2) {
                    rowCols[r2][idxOfRow[r2]].idx = at;
                    cv.push_back({r2, idxOfRow[r2], acc[r2]});
                } else {
                    cv.push_back({r2, static_cast<int>(rowCols[r2].size()),
                                  acc[r2]});
                    rowCols[r2].push_back({c2, at});
                    ++rowCount[r2];
                }
            } else if (mark[r2] == 2) {
                --rowCount[r2];
            }
            acc[r2] = 0.0;
            mark[r2] = 0;
        }
        touched += static_cast<long>(pattern.size());
        tiny[c2] = 0;
        colCount[c2] = static_cast<int>(cv.size());
    };

    // Drop the entries of done rows from column c, keeping the order of
    // the rest; each moved entry's rowCols record follows it.
    auto compactColumn = [&](int c) {
        auto& cv = col[c];
        touched += static_cast<long>(cv.size());
        std::size_t w = 0;
        for (std::size_t i = 0; i < cv.size(); ++i) {
            if (rowDone[cv[i].row]) continue;
            if (w != i) {
                cv[w] = cv[i];
                rowCols[cv[w].row][cv[w].ref].idx = static_cast<int>(w);
            }
            ++w;
        }
        cv.resize(w);
    };

    bool ok = true;
    int t = 0;
    for (; t < m; ++t) {
        // --- pivot selection ------------------------------------------
        int bestSlot = -1, bestRow = -1;
        double bestVal = 0.0;
        // Fast path: pop a singleton column (zero Markowitz cost).
        while (!singles.empty()) {
            const int s = singles.back();
            singles.pop_back();
            if (colDone[s] || colCount[s] != 1) continue;
            const auto* e = col[s].data();
            while (!live(*e)) ++e;
            touched += e - col[s].data() + 1;
            if (std::fabs(e->val) <= kLuPivotTol) continue;
            bestSlot = s;
            bestRow = e->row;
            bestVal = e->val;
            break;
        }
        if (bestSlot < 0) {
            // Markowitz scan on the irreducible core: sparsest columns
            // first, full scan only if no stable pivot was found among
            // them. The walk visits active slots in ascending order.
            active.erase(std::remove_if(active.begin(), active.end(),
                                        [&](int s) { return colDone[s]; }),
                         active.end());
            int minCount = std::numeric_limits<int>::max();
            for (int s : active) {
                if (colCount[s] > 0 && colCount[s] < minCount)
                    minCount = colCount[s];
            }
            if (minCount == std::numeric_limits<int>::max()) {
                ok = false;  // every remaining column is (numerically) empty
                break;
            }
            long bestCost = std::numeric_limits<long>::max();
            for (int round = 0; round < 2 && bestSlot < 0; ++round) {
                cand.clear();
                for (int s : active) {
                    if (colCount[s] == 0) continue;
                    if (round == 0) {
                        if (colCount[s] <= minCount + kCountSlack) {
                            cand.push_back(s);
                            if (static_cast<int>(cand.size()) >=
                                kMaxSearchCols)
                                break;
                        }
                    } else {
                        cand.push_back(s);
                    }
                }
                for (int s : cand) {
                    compactColumn(s);
                    touched += static_cast<long>(col[s].size());
                    double colmax = 0.0;
                    for (const auto& e : col[s])
                        colmax = std::max(colmax, std::fabs(e.val));
                    if (colmax <= kLuPivotTol) continue;
                    const double cutoff = kLuMarkowitzTau * colmax;
                    for (const auto& e : col[s]) {
                        const double a = std::fabs(e.val);
                        if (a < cutoff || a <= kLuPivotTol) continue;
                        const long cost =
                            static_cast<long>(rowCount[e.row] - 1) *
                            static_cast<long>(colCount[s] - 1);
                        if (cost < bestCost ||
                            (cost == bestCost && a > std::fabs(bestVal))) {
                            bestCost = cost;
                            bestSlot = s;
                            bestRow = e.row;
                            bestVal = e.val;
                        }
                    }
                }
            }
        }
        if (bestSlot < 0) {
            ok = false;
            break;
        }

        const int r = bestRow, s = bestSlot;
        const double d = bestVal;
        pivRow[t] = r;
        pivSlot[t] = s;
        pivVal[t] = d;
        rowOfSlot[s] = r;
        rowDone[r] = 1;
        colDone[s] = 1;

        // U row t: remaining entries of pivot row r across active columns,
        // read through the row's records. Only a stale first record (its
        // entry dropped, the row filled in again later) needs a scan.
        for (const auto& ref : rowCols[r]) {
            const int c2 = ref.slot;
            if (colDone[c2] || seenSlot[c2]) continue;
            seenSlot[c2] = 1;
            const auto& cv = col[c2];
            ++touched;
            if (ref.idx < static_cast<int>(cv.size()) && cv[ref.idx].row == r) {
                urow[t].push_back({c2, cv[ref.idx].val});
                continue;
            }
            touched += static_cast<long>(cv.size());
            for (const auto& e : cv) {
                if (e.row == r) {
                    urow[t].push_back({c2, e.val});
                    break;
                }
            }
        }
        for (const auto& ue : urow[t]) seenSlot[ue.first] = 0;
        for (const auto& ref : rowCols[r]) seenSlot[ref.slot] = 0;

        // L column: one elementary op eliminating column s below the pivot.
        appendLOp(r);
        touched += static_cast<long>(col[s].size());
        for (const auto& e : col[s]) {
            if (!live(e)) continue;
            --rowCount[e.row];
            const double mult = e.val / d;
            if (std::fabs(mult) <= kLuDropTol) continue;
            lRow_.push_back(e.row);
            lVal_.push_back(mult);
        }
        lStart_.back() = lRow_.size();
        const std::size_t lb = lStart_[lStart_.size() - 2];
        const std::size_t le = lStart_.back();

        // Rank-1 update of every column the pivot row touches. With an
        // empty L column nothing numeric changes: row r just leaves each
        // column, which rowDone already says, so only the count drops. A
        // column that still holds an initial entry at or below kLuDropTol
        // is updated in full, which drops that entry as a rebuild would.
        for (const auto& ue : urow[t]) {
            const int c2 = ue.first;
            if (lb == le && !tiny[c2])
                --colCount[c2];
            else
                updateColumn(c2, ue.second, lb, le);
            if (colCount[c2] == 1) singles.push_back(c2);
        }
    }

    if (!ok) {
        // Leave partial rowOfSlot for the caller's repair path.
        return false;
    }

    // Translate recordings into the id-keyed final storage: pivot step t
    // becomes id t, positions start out equal to ids.
    auto& idOfSlot = work_.idOfSlot;
    for (int k = 0; k < m; ++k) idOfSlot[pivSlot[k]] = k;
    for (int k = 0; k < m; ++k) {
        Udiag_[k] = pivVal[k];
        rowOfId_[k] = pivRow[k];
        idAtRow_[pivRow[k]] = k;
        for (const auto& ue : urow[k]) {
            const int idc = idOfSlot[ue.first];
            Urow_[k].push_back({idc, pivRow[idc], ue.second});
            Ucol_[idc].push_back({k, pivRow[k], ue.second});
            ++uFill_;
        }
    }
    // Reach indexes over the L ops (ascending per row because e ascends).
    const std::size_t ops = lPiv_.size();
    for (std::size_t e = 0; e < ops; ++e) {
        lOpsOfRow_[lPiv_[e]].push_back(static_cast<int>(e));
        for (std::size_t q = lStart_[e]; q < lStart_[e + 1]; ++q)
            lOpsOfTarget_[lRow_[q]].push_back(static_cast<int>(e));
    }
    valid_ = true;
    return true;
}

void LuFactor::ftran(std::vector<double>& x) const {
    // L stage: apply elementary ops in creation order.
    const std::size_t ops = lPiv_.size();
    for (std::size_t e = 0; e < ops; ++e) {
        const double p = x[lPiv_[e]];
        if (p == 0.0) continue;
        for (std::size_t q = lStart_[e]; q < lStart_[e + 1]; ++q)
            x[lRow_[q]] -= lVal_[q] * p;
    }
    // U stage: back substitution over pivot positions, descending. Scatters
    // from position k only touch rows of strictly earlier positions, which
    // still hold right-hand-side values.
    for (int k = m_ - 1; k >= 0; --k) {
        const int id = order_[k];
        const int r = rowOfId_[id];
        double v = x[r];
        if (v != 0.0) {
            v /= Udiag_[id];
            for (const auto& e : Ucol_[id]) x[e.row] -= e.val * v;
            x[r] = v;
        }
    }
}

void LuFactor::ftranSpike(std::vector<double>& x) {
    const std::size_t ops = lPiv_.size();
    for (std::size_t e = 0; e < ops; ++e) {
        const double p = x[lPiv_[e]];
        if (p == 0.0) continue;
        for (std::size_t q = lStart_[e]; q < lStart_[e + 1]; ++q)
            x[lRow_[q]] -= lVal_[q] * p;
    }
    spike_ = x;
    spikeValid_ = true;
    spikeSparse_ = false;  // dense copy: spikeIdx_ no longer describes it
    for (int k = m_ - 1; k >= 0; --k) {
        const int id = order_[k];
        const int r = rowOfId_[id];
        double v = x[r];
        if (v != 0.0) {
            v /= Udiag_[id];
            for (const auto& e : Ucol_[id]) x[e.row] -= e.val * v;
            x[r] = v;
        }
    }
}

void LuFactor::btran(std::vector<double>& y) const {
    // Hyper-sparsity shortcut: forward substitution in ascending pivot
    // order means a position can only become nonzero through strictly
    // earlier positions, so everything before the first nonzero of y stays
    // zero and is skipped outright. The dual engine's dominant right-hand
    // side rho = B^{-T} e_r has a single nonzero, which on average sits
    // halfway down the order — this one O(m) scan halves the U^T pass.
    int kStart = 0;
    while (kStart < m_ && y[rowOfId_[order_[kStart]]] == 0.0) ++kStart;
    // U^T stage: forward substitution over pivot positions, ascending.
    for (int k = kStart; k < m_; ++k) {
        const int id = order_[k];
        const int r = rowOfId_[id];
        double s = y[r];
        for (const auto& e : Ucol_[id]) s -= e.val * y[e.row];
        y[r] = s / Udiag_[id];
    }
    // L^T stage: transposed ops in reverse creation order.
    for (std::size_t e = lPiv_.size(); e-- > 0;) {
        double s = y[lPiv_[e]];
        for (std::size_t q = lStart_[e]; q < lStart_[e + 1]; ++q)
            s -= lVal_[q] * y[lRow_[q]];
        y[lPiv_[e]] = s;
    }
}

bool LuFactor::chooseSparse(HyperCtl& c, const SparseVec& v) const {
    if (!hyper_ || m_ < kHyperMinDim) return false;
    if (c.dense && c.ewma < kHyperReenter) c.dense = false;
    if (c.dense) return false;
    if (v.dense) return false;  // dense-mode input has no support list
    // Per-call guard: a right-hand side already denser than the threshold
    // can only produce a denser result; skip the symbolic pass outright.
    return static_cast<double>(v.idx.size()) <= kHyperEnter * m_;
}

void LuFactor::noteDensity(HyperCtl& c, const SparseVec& v) {
    if (m_ == 0) return;
    const double density = static_cast<double>(v.nnz()) / m_;
    c.ewma = kHyperEwmaDecay * c.ewma + (1.0 - kHyperEwmaDecay) * density;
    if (c.ewma > kHyperEnter) c.dense = true;
}

void LuFactor::ftranLSparse(SparseVec& x) {
    // A nonzero at row r fires exactly the ops pivoted on r that the dense
    // loop has not passed yet. A min-heap of op ids seeded from the support
    // rows pops in increasing id order — the dense execution order — and a
    // row first touched while applying op e contributes only its ops with
    // id > e (its earlier ops saw a zero and were identities). Each op has
    // one pivot row and every row is enqueued at most once, so no op enters
    // the heap twice.
    heap_.clear();
    for (int r : x.idx)
        for (int e : lOpsOfRow_[r]) heap_.push_back(e);
    std::make_heap(heap_.begin(), heap_.end(), std::greater<int>());
    while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<int>());
        const int e = heap_.back();
        heap_.pop_back();
        const double p = x.val[lPiv_[e]];
        if (p == 0.0) continue;
        for (std::size_t q = lStart_[e]; q < lStart_[e + 1]; ++q) {
            const int r2 = lRow_[q];
            x.val[r2] -= lVal_[q] * p;
            if (!x.flag[r2]) {
                x.flag[r2] = 1;
                x.idx.push_back(r2);
                const auto& rops = lOpsOfRow_[r2];
                for (auto it = std::upper_bound(rops.begin(), rops.end(), e);
                     it != rops.end(); ++it) {
                    heap_.push_back(*it);
                    std::push_heap(heap_.begin(), heap_.end(),
                                   std::greater<int>());
                }
            }
        }
    }
}

void LuFactor::ftranUSparse(SparseVec& x) {
    // Symbolic reach: position k scatters into strictly earlier positions
    // (the Ucol_ edges), so a DFS from the support ids over Ucol_ collects
    // every position the back substitution can write. Executing the reach
    // in descending pivot position is the dense loop order restricted to
    // the reach; unreached positions hold exact zeros the dense loop would
    // have skipped anyway.
    reachIds_.clear();
    for (int r : x.idx) {
        const int id0 = idAtRow_[r];
        if (reachMark_[id0]) continue;
        reachMark_[id0] = 1;
        dfsStack_.push_back({id0, 0});
        while (!dfsStack_.empty()) {
            auto& top = dfsStack_.back();
            const auto& edges = Ucol_[top.first];
            if (top.second == static_cast<int>(edges.size())) {
                reachIds_.push_back(top.first);
                dfsStack_.pop_back();
                continue;
            }
            const int child = edges[top.second++].id;
            if (!reachMark_[child]) {
                reachMark_[child] = 1;
                dfsStack_.push_back({child, 0});
            }
        }
    }
    std::sort(reachIds_.begin(), reachIds_.end(),
              [&](int a, int b) { return posOf_[a] > posOf_[b]; });
    for (int id : reachIds_) {
        reachMark_[id] = 0;
        const int r = rowOfId_[id];
        x.touch(r);
        double v = x.val[r];
        if (v != 0.0) {
            v /= Udiag_[id];
            for (const auto& e : Ucol_[id])
                x.val[e.row] -= e.val * v;
            x.val[r] = v;
        }
    }
}

void LuFactor::btranUSparse(SparseVec& y) {
    // Transposed U: position k reads strictly earlier positions, so a
    // nonzero propagates forward along Urow_ edges. Reach DFS over Urow_,
    // then execute ascending — again the dense order on the reach.
    reachIds_.clear();
    for (int r : y.idx) {
        const int id0 = idAtRow_[r];
        if (reachMark_[id0]) continue;
        reachMark_[id0] = 1;
        dfsStack_.push_back({id0, 0});
        while (!dfsStack_.empty()) {
            auto& top = dfsStack_.back();
            const auto& edges = Urow_[top.first];
            if (top.second == static_cast<int>(edges.size())) {
                reachIds_.push_back(top.first);
                dfsStack_.pop_back();
                continue;
            }
            const int child = edges[top.second++].id;
            if (!reachMark_[child]) {
                reachMark_[child] = 1;
                dfsStack_.push_back({child, 0});
            }
        }
    }
    std::sort(reachIds_.begin(), reachIds_.end(),
              [&](int a, int b) { return posOf_[a] < posOf_[b]; });
    for (int id : reachIds_) {
        reachMark_[id] = 0;
        const int r = rowOfId_[id];
        double s = y.val[r];
        for (const auto& e : Ucol_[id])
            s -= e.val * y.val[e.row];
        y.val[r] = s / Udiag_[id];
        y.touch(r);
    }
}

void LuFactor::btranLSparse(SparseVec& y) {
    // Transposed L ops run in reverse creation order and op e only changes
    // y[pivot] when some target row of e is nonzero. Max-heap of op ids
    // seeded from the support rows' target-op lists pops in decreasing id
    // order (= dense order); a pivot row first written while applying op e
    // wakes only its target ops with id < e (the later ones already ran).
    // Unlike the FTRAN case an op has several target rows, so a per-op
    // queued flag dedups the heap.
    const std::size_t ops = lPiv_.size();
    if (opQueued_.size() < ops) opQueued_.resize(ops, 0);
    heap_.clear();
    for (int r : y.idx)
        for (int e : lOpsOfTarget_[r])
            if (!opQueued_[e]) {
                opQueued_[e] = 1;
                heap_.push_back(e);
            }
    std::make_heap(heap_.begin(), heap_.end());
    while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end());
        const int e = heap_.back();
        heap_.pop_back();
        opQueued_[e] = 0;
        double s = y.val[lPiv_[e]];
        for (std::size_t q = lStart_[e]; q < lStart_[e + 1]; ++q)
            s -= lVal_[q] * y.val[lRow_[q]];
        const int pr = lPiv_[e];
        y.val[pr] = s;
        if (!y.flag[pr]) {
            y.flag[pr] = 1;
            y.idx.push_back(pr);
            for (int e2 : lOpsOfTarget_[pr]) {
                if (e2 >= e) break;  // sorted ascending: the rest ran already
                if (!opQueued_[e2]) {
                    opQueued_[e2] = 1;
                    heap_.push_back(e2);
                    std::push_heap(heap_.begin(), heap_.end());
                }
            }
        }
    }
}

bool LuFactor::ftranSparse(SparseVec& x, LuRhs cls) {
    HyperCtl& ctl = ftranCtl_[static_cast<int>(cls)];
    const bool sparse = chooseSparse(ctl, x);
    if (sparse) {
        if (!lOpsValid_) rebuildLOps();
        ftranLSparse(x);
        ftranUSparse(x);
        x.sortSupport();
    } else {
        // Dense fallback: don't pay an O(m) support rebuild for a result
        // that is dense anyway — hand the consumer a dense-mode vector.
        x.markDense();
        ftran(x.val);
    }
    noteDensity(ctl, x);
    return sparse;
}

bool LuFactor::ftranSpikeSparse(SparseVec& x) {
    HyperCtl& ctl = ftranCtl_[static_cast<int>(LuRhs::Column)];
    const bool sparse = chooseSparse(ctl, x);
    if (sparse) {
        if (!lOpsValid_) rebuildLOps();
        ftranLSparse(x);
        x.sortSupport();
        // Cache the post-L spike sparsely: clear the previous support (or
        // the whole array if the last spike came through the dense path),
        // then copy the new one.
        if (spikeSparse_)
            for (int r : spikeIdx_) spike_[r] = 0.0;
        else
            spike_.assign(m_, 0.0);
        spikeIdx_ = x.idx;
        for (int r : spikeIdx_) spike_[r] = x.val[r];
        spikeValid_ = true;
        spikeSparse_ = true;
        ftranUSparse(x);
        x.sortSupport();
    } else {
        x.markDense();
        ftranSpike(x.val);
        spikeSparse_ = false;
    }
    noteDensity(ctl, x);
    return sparse;
}

bool LuFactor::btranSparse(SparseVec& y, LuRhs cls) {
    HyperCtl& ctl = btranCtl_[static_cast<int>(cls)];
    const bool sparse = chooseSparse(ctl, y);
    if (sparse) {
        if (!lOpsValid_) rebuildLOps();
        btranUSparse(y);
        btranLSparse(y);
        y.sortSupport();
    } else {
        y.markDense();
        btran(y.val);
    }
    noteDensity(ctl, y);
    return sparse;
}

bool LuFactor::update(int leaveRow) {
    if (!spikeValid_) {
        valid_ = false;
        return false;
    }
    spikeValid_ = false;

    const int id0 = idAtRow_[leaveRow];
    const int t0 = posOf_[id0];

    // Detach row id0 and column id0 from U. The row's entries drive the
    // eliminations below; the column is about to be replaced by the spike.
    std::vector<UEnt> u = std::move(Urow_[id0]);
    Urow_[id0].clear();
    for (const auto& e : u) eraseEntry(Ucol_[e.id], id0);
    for (const auto& e : Ucol_[id0]) eraseEntry(Urow_[e.id], id0);
    uFill_ -= static_cast<long>(u.size() + Ucol_[id0].size());
    Ucol_[id0].clear();

    // Cyclically shifting position t0 to the end leaves the detached row as
    // the only sub-diagonal row; eliminate it by forward substitution over
    // positions t0+1..m-1, appending one single-entry row op to L per
    // surviving multiplier. alpha_ holds the row's current value per id.
    // Only positions the row actually touches can carry a nonzero. When the
    // detached row is sparse relative to the tail the scan is driven by a
    // min-heap of positions seeded from its entries and fed by the Urow_
    // scatters (all of which land at strictly later positions) — ascending
    // pops reproduce the dense elimination order exactly. A dense-ish row
    // uses the plain linear position scan instead: at high fill the heap
    // maintenance costs more than touching every tail position once.
    for (const auto& e : u) alpha_[e.id] = e.val;
    double delta = spike_[leaveRow];
    // Skip reach-index upkeep while no reach kernel can run (every
    // (direction, class) controller is on the dense fallback, or the
    // kernels are switched off); the indexes go stale and are rebuilt on
    // demand.
    const bool maintainLOps = lOpsValid_ && hyper_ && !allCtlDense();
    if (!maintainLOps) lOpsValid_ = false;
    auto eliminate = [&](int id, double a) {
        const double mult = a / Udiag_[id];
        const int pr = rowOfId_[id];
        const int opIdx = static_cast<int>(lPiv_.size());
        lPiv_.push_back(pr);
        lRow_.push_back(leaveRow);
        lVal_.push_back(mult);
        lStart_.push_back(lRow_.size());
        if (maintainLOps) {
            lOpsOfRow_[pr].push_back(opIdx);
            lOpsOfTarget_[leaveRow].push_back(opIdx);
        }
        delta -= mult * spike_[pr];
        return mult;
    };
    // The heap walk pays off only when the whole elimination stays sparse.
    // The detached row's initial size misses fill-in: scattering a row of a
    // spike-dense U wakes hundreds of later positions, and every wake-up
    // costs a push_heap. Require low average U fill (raw factors have ~a
    // handful of entries per row; accumulated dense FT spikes blow past
    // this) before trusting the initial size as a sparsity signal.
    const int tail = m_ - 1 - t0;
    if (static_cast<long>(u.size()) * 4 < tail && uFill_ < 8L * m_) {
        heap_.clear();
        for (const auto& e : u)
            if (!elimQueued_[e.id]) {
                elimQueued_[e.id] = 1;
                heap_.push_back(posOf_[e.id]);
            }
        std::make_heap(heap_.begin(), heap_.end(), std::greater<int>());
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<int>());
            const int k = heap_.back();
            heap_.pop_back();
            const int id = order_[k];
            elimQueued_[id] = 0;
            const double a = alpha_[id];
            alpha_[id] = 0.0;
            if (std::fabs(a) <= kLuDropTol) continue;
            const double mult = eliminate(id, a);
            for (const auto& e : Urow_[id]) {
                alpha_[e.id] -= mult * e.val;
                if (!elimQueued_[e.id]) {
                    elimQueued_[e.id] = 1;
                    heap_.push_back(posOf_[e.id]);
                    std::push_heap(heap_.begin(), heap_.end(),
                                   std::greater<int>());
                }
            }
        }
    } else {
        for (int k = t0 + 1; k < m_; ++k) {
            const int id = order_[k];
            const double a = alpha_[id];
            alpha_[id] = 0.0;
            if (std::fabs(a) <= kLuDropTol) continue;
            const double mult = eliminate(id, a);
            for (const auto& e : Urow_[id])
                alpha_[e.id] -= mult * e.val;
        }
    }

    if (std::fabs(delta) < kLuPivotTol || !std::isfinite(delta)) {
        valid_ = false;
        return false;
    }

    // Insert the spike as the new last column, keyed by the recycled id0.
    // All its entries sit above the new diagonal by construction. A sparse
    // spike walks its (ascending) support instead of all rows — same visit
    // order, and rows outside the support hold exact zeros.
    auto insertSpikeRow = [&](int r) {
        if (r == leaveRow) return;
        const double v = spike_[r];
        if (std::fabs(v) <= kLuDropTol) return;
        const int id = idAtRow_[r];
        Ucol_[id0].push_back({id, r, v});
        Urow_[id].push_back({id0, leaveRow, v});
        ++uFill_;
    };
    if (spikeSparse_)
        for (int r : spikeIdx_) insertSpikeRow(r);
    else
        for (int r = 0; r < m_; ++r) insertSpikeRow(r);
    Udiag_[id0] = delta;

    // Rotate the pivot order: id0 moves from position t0 to the end.
    order_.erase(order_.begin() + t0);
    order_.push_back(id0);
    for (int k = t0; k < m_; ++k) posOf_[order_[k]] = k;
    ++updates_;
    return true;
}

}  // namespace lp
