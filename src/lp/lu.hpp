// Sparse LU factorization of the simplex basis with Forrest–Tomlin updates.
//
// Instead of representing B^{-1} as a growing product of elementary etas —
// whose update etas densify between refactorizations — the basis is held as
//
//     B = L * U            (modulo row and pivot-order permutations)
//
// where L is a product of unit-lower-triangular elementary operations and U
// is a sparse permuted upper triangular matrix stored both column- and
// row-wise. A simplex pivot performs a Forrest–Tomlin rank-1 update: the
// entering column's partially solved "spike" replaces the leaving column of
// U, the leaving pivot moves to the last position, and the sub-diagonal row
// this creates is eliminated by row operations appended to the L product.
// Fill growth per update is one sparse column plus one single-entry row
// operation per eliminated position — bounded by U's own sparsity — instead
// of one near-dense eta per pivot.
//
// Factorization uses Markowitz pivoting: each Gaussian step picks, among a
// handful of sparsest active columns, the entry minimizing the fill bound
// (rowcount-1)*(colcount-1) subject to the threshold stability test
// |a_rc| >= kLuMarkowitzTau * max|a_*c|.
//
// Index conventions (shared with SimplexSolver): the factorization assigns
// every basic column a pivot row; after `factorize` the caller re-permutes
// its `basic_` array with `rowOfSlot` so that slot == pivot row. From then
// on `ftran` maps a right-hand side b (indexed by row) to the solution x
// with x[r] = coefficient of the variable basic in row r, and `btran` maps
// basic costs (indexed by row) to row duals.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "lp/sparsevec.hpp"

namespace lp {

/// Fill dropped from L/U on creation (products of rounded quantities).
inline constexpr double kLuDropTol = 1e-13;
/// Minimum admissible factorization / update pivot magnitude.
inline constexpr double kLuPivotTol = 1e-11;
/// Markowitz threshold: a pivot candidate must be at least this fraction of
/// its column's largest entry.
inline constexpr double kLuMarkowitzTau = 0.1;

/// Right-hand-side class for the hyper-sparse solves. The three RHS
/// families a simplex iteration feeds through the factor have persistently
/// different result densities (an entering structural column is far sparser
/// than a unit pricing row; a bound-flip patch is sparser still), so each
/// class keeps its own density EWMA + hysteresis state instead of sharing
/// one per direction — a dense burst of pricing rows no longer parks
/// entering-column solves on the dense fallback and vice versa.
enum class LuRhs {
    Column = 0,  ///< entering column / spike (FTRAN of a matrix column)
    Row = 1,     ///< pricing row ops (BTRAN unit row, FTRAN of the row)
    Flip = 2,    ///< bound-flip patch column accumulations
};
inline constexpr int kLuRhsClasses = 3;

class LuFactor {
public:
    /// Reset to an empty, invalid factor of dimension m.
    void clear(int m);

    int dim() const { return m_; }
    bool valid() const { return valid_; }

    /// Slack-basis shortcut: B = diag * I (one trivial pivot per row).
    void loadSlack(int m, double diag);

    /// Factorize the basis whose slot s (s = 0..m-1) holds column basic[s]
    /// of the CSC matrix. On success fills rowOfSlot[s] with the pivot row
    /// chosen for slot s (the caller re-permutes its basic array so that
    /// slot == row). On singularity returns false with rowOfSlot[s] == -1
    /// for every slot that could not be pivoted — callers can repair the
    /// basis by substituting slacks of the unused rows and retry.
    bool factorize(const std::vector<int>& basic,
                   const std::vector<int>& cscPtr,
                   const std::vector<int>& cscRow,
                   const std::vector<double>& cscVal,
                   std::vector<int>& rowOfSlot);

    /// FTRAN: x <- B^{-1} x (x dense, indexed by row).
    void ftran(std::vector<double>& x) const;

    /// FTRAN that additionally caches the post-L intermediate (the
    /// Forrest–Tomlin spike) so an immediately following update() of the
    /// same column needs no second solve. Used for entering columns.
    void ftranSpike(std::vector<double>& x);

    /// BTRAN: y <- B^{-T} y (y dense, indexed by row).
    void btran(std::vector<double>& y) const;

    // -- hyper-sparse solves (Gilbert–Peierls reach) ------------------------
    // Symbolic pass first: from the right-hand-side support, the set of
    // positions the substitution can possibly write (the "reach") is
    // computed by graph traversal over the L/U nonzero structure; the
    // numeric pass then visits only reached positions, in exactly the order
    // the dense loops would, so the two paths produce bit-identical nonzero
    // values. Each call decides between the reach kernel and the dense loop
    // via a result-density EWMA with hysteresis (enter dense above ~30%,
    // re-enter sparse below ~15%) kept per (direction, LuRhs class); the
    // return value reports which path ran (true = reach kernel). The result
    // support is sorted ascending either way, and the numeric result is
    // bit-identical on both paths regardless of the class passed.
    bool ftranSparse(SparseVec& x, LuRhs cls = LuRhs::Column);
    bool btranSparse(SparseVec& y, LuRhs cls = LuRhs::Row);
    /// Sparse analogue of ftranSpike(): caches the post-L spike (support +
    /// values) for the coming Forrest–Tomlin update. Always an entering
    /// column, so it shares the LuRhs::Column FTRAN controller.
    bool ftranSpikeSparse(SparseVec& x);
    /// Master switch for the reach kernels (density fallback still applies).
    void setHyperSparse(bool on) { hyper_ = on; }
    bool hyperSparse() const { return hyper_; }

    /// Forrest–Tomlin update: the variable basic in row leaveRow is replaced
    /// by the column last passed through ftranSpike(). Returns false — and
    /// invalidates the factor, forcing a refactorization — if no spike is
    /// cached or the new diagonal is numerically unusable.
    bool update(int leaveRow);

    /// Stored nonzeros across L ops, U off-diagonals and U diagonals. The
    /// simplex layer's refactorization policy is driven by the growth of
    /// this count relative to its value right after factorize().
    long fill() const {
        return static_cast<long>(lVal_.size() + uFill_) + m_;
    }
    /// Forrest–Tomlin updates absorbed since the last factorization.
    int updates() const { return updates_; }
    /// Active-matrix column entries the last factorize() read or wrote: a
    /// work counter for benches.
    long factorTouched() const { return work_.touched; }

private:
    friend struct LuFactorPeek;  ///< read-only access for the pin test

    /// U entry: the stable pivot id keys the nonzero graph the reach DFS
    /// walks (posOf_ comparisons), and the entry's pivot row is denormalized
    /// alongside so the dense substitution loops index the solution vector
    /// directly instead of chasing rowOfId_ per entry. Rows never change for
    /// a live id (Forrest–Tomlin only recycles the leaving id), so the copy
    /// cannot go stale. Same 16-byte footprint as the pair<int, double> it
    /// replaces (the pair padded its int to 8 bytes anyway).
    struct UEnt {
        int id;
        int row;
        double val;
    };
    static void eraseEntry(std::vector<UEnt>& v, int id);
    void appendLOp(int pivotRow);
    double* udiag() { return Udiag_.data(); }

    // Hyper-sparse internals.
    struct HyperCtl {
        double ewma = 0.0;  ///< smoothed result density per (dir, class)
        bool dense = false; ///< currently in dense fallback mode
    };
    bool chooseSparse(HyperCtl& c, const SparseVec& v) const;
    void noteDensity(HyperCtl& c, const SparseVec& v);
    void ftranLSparse(SparseVec& x);
    void ftranUSparse(SparseVec& x);
    void btranUSparse(SparseVec& y);
    void btranLSparse(SparseVec& y);

    int m_ = 0;
    bool valid_ = false;
    int updates_ = 0;

    // L: packed pool of elementary row operations, applied in order during
    // FTRAN: x[row] -= mult * x[pivotRow]. Unit diagonal, no divisions.
    std::vector<int> lPiv_;            ///< pivot row per op
    std::vector<std::size_t> lStart_;  ///< entry range per op (size ops+1)
    std::vector<int> lRow_;            ///< packed target rows
    std::vector<double> lVal_;         ///< packed multipliers

    // U: keyed by stable pivot id (0..m-1). Position in the pivot order is
    // indirection through order_/posOf_ so Forrest–Tomlin's cyclic
    // permutation never renumbers stored entries.
    std::vector<double> Udiag_;  ///< diagonal per id
    /// Column id: entries with posOf_[entry.id] < posOf_[column id].
    std::vector<std::vector<UEnt>> Ucol_;
    /// Row id: entries with posOf_[entry.id] > posOf_[row id].
    std::vector<std::vector<UEnt>> Urow_;
    std::vector<int> rowOfId_;  ///< pivot row (matrix row index) per id
    std::vector<int> idAtRow_;  ///< inverse of rowOfId_
    std::vector<int> order_;    ///< ids in pivot order
    std::vector<int> posOf_;    ///< position per id
    long uFill_ = 0;            ///< total Ucol_ (== Urow_) entries

    // Forrest–Tomlin scratch.
    std::vector<double> spike_;  ///< cached post-L entering column
    bool spikeValid_ = false;
    std::vector<double> alpha_;  ///< dense elimination accumulator (by id)
    /// Support of spike_ when it came from ftranSpikeSparse (sorted
    /// ascending); invariant: spike_ is exactly zero outside spikeIdx_
    /// whenever spikeSparse_ is set.
    std::vector<int> spikeIdx_;
    bool spikeSparse_ = false;

    // Reach-kernel indexes over L: op ids by pivot row (drives FTRAN
    // propagation) and by target row (drives transposed BTRAN propagation).
    // Both lists stay sorted ascending because ops are only ever appended.
    std::vector<std::vector<int>> lOpsOfRow_;
    std::vector<std::vector<int>> lOpsOfTarget_;
    /// The L-op reach indexes above are only consumed by the reach kernels.
    /// While the density controller has parked *both* solve directions on
    /// the dense fallback, update() skips the per-op index pushes (two
    /// scattered vector appends per elimination op — measurable in the
    /// FT-update hot path) and clears this flag; the first solve that picks
    /// a reach kernel again rebuilds both indexes from the op pool.
    bool lOpsValid_ = true;
    void rebuildLOps();

    // Reach scratch (cleared via their own contents after each solve).
    std::vector<int> heap_;                     ///< op-index / position heap
    std::vector<char> opQueued_;                ///< per-op dedup (BTRAN L^T)
    std::vector<char> elimQueued_;              ///< per-id dedup (FT update)
    std::vector<char> reachMark_;               ///< per-id DFS mark
    std::vector<int> reachIds_;                 ///< collected reach
    std::vector<std::pair<int, int>> dfsStack_; ///< (id, next edge)

    bool hyper_ = true;
    /// Density controllers per direction and RHS class, indexed by LuRhs;
    /// persist across refactorizations.
    HyperCtl ftranCtl_[kLuRhsClasses];
    HyperCtl btranCtl_[kLuRhsClasses];
    /// True when every (direction, class) controller sits on the dense
    /// fallback — the only state in which update() may skip reach-index
    /// upkeep, since no reach kernel can run before the next re-entry.
    bool allCtlDense() const {
        for (int k = 0; k < kLuRhsClasses; ++k)
            if (!ftranCtl_[k].dense || !btranCtl_[k].dense) return false;
        return true;
    }

    // Markowitz workspace, persistent across factorizations: warm resolves
    // refactorize every few dozen pivots, and reallocating ~6 vectors of
    // vectors per call dominated the factorization cost before this cache
    // (inner vectors keep their capacity; only sizes are reset per call).
    struct ColEnt {
        int row;
        int ref;  ///< index of this entry's record in rowCols[row]
        double val;
    };
    struct ColRef {
        int slot;  ///< column (basis slot)
        int idx;   ///< index of the row's entry in col[slot]
    };
    struct FactorWork {
        std::vector<std::vector<ColEnt>> col;
        std::vector<std::vector<ColRef>> rowCols;
        std::vector<std::vector<std::pair<int, double>>> urow;  // (slot, val)
        std::vector<int> rowCount, colCount;
        std::vector<char> rowDone, colDone;
        /// Column still holds an initial entry at or below kLuDropTol.
        std::vector<char> tiny;
        std::vector<int> pivRow, pivSlot;
        std::vector<double> pivVal;
        std::vector<double> acc;
        std::vector<char> mark, seenSlot;
        std::vector<int> idxOfRow, pattern, cand, singles, idOfSlot;
        /// Slots not yet pivoted, ascending (done ones removed lazily).
        std::vector<int> active;
        /// Column entries read or written by the last factorize().
        long touched = 0;
        void reset(int m);
    };
    FactorWork work_;
};

}  // namespace lp
