// Sparse revised simplex (primal phase I/II + dual reoptimize).
//
// This plays the role CPLEX/SoPlex play for SCIP in the paper: the LP
// relaxation engine under branch-and-cut. It supports
//   * solving from scratch (composite phase-1 primal simplex),
//   * adding rows (cuts) and reoptimizing with the dual simplex,
//   * changing column bounds (branching) and reoptimizing dually,
//   * dual values and reduced costs (needed for reduced-cost fixing and
//     dual-ascent-style bound reasoning in the Steiner solver),
//   * basis snapshots (basis()/loadBasis()) so the branch-and-bound layer
//     can warm-start child nodes from their parent's optimal basis and
//     strong-branching probes can restore the pre-probe state.
//
// Engine internals (see src/lp/README.md for the full story):
//   * the constraint matrix is kept both as a dynamic per-column build view
//     (cheap row appends for cuts) and as a packed CSC copy used by every
//     hot loop (pricing, FTRAN scatter, dual ratio test);
//   * the basis is factorized as a sparse Markowitz LU with Forrest–Tomlin
//     updates (lp/lu.hpp), which provides sparse FTRAN/BTRAN instead of an
//     explicit dense B^{-1};
//   * pricing scans a rotating candidate window (partial pricing) scored by
//     devex reference weights, falling back to full Dantzig/Bland scans on
//     degenerate stalls — full scans also certify optimality;
//   * a periodic residual check against the raw matrix triggers
//     refactorization before accumulated factor drift can corrupt the
//     objective; fill growth beyond a ratio of the fresh factorization's
//     fill (or an update-count cap) does the same.
#pragma once

#include <vector>

#include "lp/basis.hpp"
#include "lp/lu.hpp"
#include "lp/model.hpp"
#include "lp/sparsevec.hpp"

namespace lp {

/// Dual leaving-row pricing rule (cip parameter `lp/pricing`).
enum class Pricing {
    Devex,  ///< approximate reference-framework row weights
    DSE,    ///< exact dual steepest-edge, one extra FTRAN per dual pivot
            ///< (default: ~1.4-1.5x fewer warm-resolve iterations measured
            ///< at every bound-change depth on the Steiner-cut LP family)
};

const char* toString(Pricing p);

enum class SolveStatus {
    Optimal,
    Infeasible,
    Unbounded,
    IterLimit,
    NumericalTrouble,
};

const char* toString(SolveStatus s);

class SimplexSolver {
public:
    SimplexSolver() = default;

    /// Load a model (copies rows/cols into internal column-wise form).
    void load(const LpModel& model);

    /// Solve from scratch (fresh slack basis, primal phase I/II).
    SolveStatus solve();

    /// Append rows (e.g. separated cuts) and reoptimize with dual simplex.
    SolveStatus addRowsAndResolve(const std::vector<Row>& rows);

    /// Change bounds of a structural column and reoptimize dually.
    /// Multiple bound changes may be batched before a single resolve().
    void changeBounds(int col, double lb, double ub);

    /// Change the side bounds (lhs/rhs) of an existing row — equivalent to
    /// re-bounding its slack variable. Used for node-locally activated rows
    /// (constraint branching).
    void changeRowBounds(int row, double lhs, double rhs) {
        changeBounds(n_ + row, lhs, rhs);
    }

    /// Reoptimize after bound changes (dual simplex; falls back to a fresh
    /// primal solve on numerical trouble).
    SolveStatus resolve();

    // -- basis warm-starts --------------------------------------------------
    /// Snapshot the current basis. Invalid (empty) if no basis is held.
    Basis basis() const;
    /// Restore a snapshot: re-derives row assignment by refactorizing and
    /// adapts to rows added/removed since the snapshot (new-row slacks go
    /// basic). Returns false — leaving the solver in a cold state — if the
    /// column count changed or the implied basis is singular; the caller
    /// must then solve() from scratch.
    bool loadBasis(const Basis& b);

    // -- solution access (valid after Optimal) ------------------------------
    double objective() const { return obj_; }
    const std::vector<double>& primal() const { return primalX_; }
    /// Dual multiplier of row i (sign convention: c - A'y are the reduced
    /// costs; y_i >= 0 for binding >= rows, <= 0 for binding <= rows).
    const std::vector<double>& duals() const { return dualY_; }
    /// Reduced cost of structural column j.
    const std::vector<double>& reducedCosts() const { return redCost_; }

    long iterations() const { return totalIters_; }
    /// Basis (re)factorizations performed (slack setups, periodic/residual
    /// refactorizations, basis loads). Exposed for drift tests and stats.
    long factorizations() const { return numFactor_; }
    int numRows() const { return m_; }
    int numCols() const { return n_; }

    /// Current factor fill (L+U nonzeros). Drives the refactorization
    /// policy; exposed for benchmarks/tests.
    long factorFill() const { return lu_.fill(); }

    /// Iteration limit per (re)solve; guards against cycling in pathological
    /// cases. Default is generous.
    void setIterLimit(long lim) { iterLimit_ = lim; }
    long iterLimit() const { return iterLimit_; }

    /// Dual pricing rule. DSE (default) maintains exact steepest-edge row
    /// norms across resolves of an unchanged basis at one extra FTRAN per
    /// dual pivot; devex restarts approximate reference weights on every
    /// resolve — cheaper per pivot, measurably more pivots on warm
    /// reoptimizations. Cold solves start in primal phase 1 and are
    /// insensitive to this choice.
    void setPricing(Pricing p) { pricing_ = p; }
    Pricing pricing() const { return pricing_; }

    /// Enable/disable the hyper-sparse reach kernels (the automatic density
    /// fallback still applies when enabled). On by default; exposed for the
    /// dense-vs-reach equivalence tests.
    void setHyperSparse(bool on) {
        hyper_ = on;
        lu_.setHyperSparse(on);
    }
    bool hyperSparse() const { return hyper_; }

    // Sparsity telemetry: basis solves answered by the reach kernels vs the
    // dense loops, and the summed result support size (mean nnz =
    // solveNnzSum / (hyperSolves + denseSolves)).
    long hyperSolves() const { return hyperSolves_; }
    long denseSolves() const { return denseSolves_; }
    long solveNnzSum() const { return solveNnzSum_; }

private:
    using VStat = VarStatus;

    // Dynamic per-column build view over [structural | slack] variables;
    // row appends (cuts) push entries here. Hot loops use the packed CSC
    // mirror below instead.
    struct SparseCol {
        std::vector<std::pair<int, double>> entries;  // (row, coef)
    };

    int n_ = 0;  ///< structural columns
    int m_ = 0;  ///< rows
    std::vector<SparseCol> cols_;   ///< size n_ + m_ (slack j has single -1)
    std::vector<double> cost_;      ///< size n_ + m_ (slack cost 0)
    std::vector<double> lb_, ub_;   ///< size n_ + m_
    std::vector<VStat> vstat_;      ///< size n_ + m_
    std::vector<int> basic_;        ///< size m_: variable index basic in row
    std::vector<double> xb_;        ///< basic variable values

    // Packed CSC mirror of cols_ (rebuilt lazily after structural changes)
    // plus a CSR transpose: the dual ratio test scatters one sparse rho row
    // through the CSR view instead of dotting rho against every column.
    std::vector<int> cscPtr_;       ///< size n_ + m_ + 1
    std::vector<int> cscRow_;
    std::vector<double> cscVal_;
    std::vector<int> csrPtr_;       ///< size m_ + 1
    std::vector<int> csrCol_;
    std::vector<double> csrVal_;
    bool cscDirty_ = true;

    LuFactor lu_;                   ///< basis factor: Markowitz LU + FT updates

    // Fill-ratio refactorization policy, recomputed after every successful
    // (re)factorization by resetFactorPolicy().
    long baseFill_ = 0;      ///< factor fill right after refactorization
    long fillLimit_ = 0;     ///< refactor when factorFill() exceeds this
    int updateLimit_ = 0;    ///< ... or after this many updates
    int updatesSince_ = 0;   ///< pivot updates absorbed since refactor
    int residInterval_ = 50; ///< iterations between residual drift checks
    bool factorStale_ = false;  ///< set when an FT update fails mid-pivot

    // Pricing state: devex reference weights + partial-pricing cursor.
    std::vector<double> devex_;     ///< size n_ + m_
    int pricingPos_ = 0;

    // Dual row pricing weights (gamma_i ~ ||B^{-T} e_i||^2; exact for DSE,
    // reference-framework approximations for devex). They persist in
    // dseGamma_ across resolves while the basis is unchanged — dseFresh_ is
    // dropped by every pivot outside the dual loop and re-earned by the
    // loop's own update — and refactorizations permute them together with
    // basic_ (permuteDseGamma). weightsRule_ records which rule produced
    // them: weights are never reused across rules.
    Pricing pricing_ = Pricing::DSE;
    std::vector<double> dseGamma_;
    bool dseFresh_ = false;
    Pricing weightsRule_ = Pricing::Devex;
    /// Re-order dseGamma_ by the slot->row map a refactorization applied to
    /// basic_ (weights belong to the slot's basic variable, not to the row
    /// index). Unmapped slots (singular-repair) restart at weight 1.
    void permuteDseGamma(const std::vector<int>& rowOfSlot);

    // Hyper-sparse pipeline state: reusable sparse work vectors (entering
    // column, BTRAN row, DSE tau) and the solve-path counters. iota_ is the
    // identity index list the consumers iterate when a solve came back in
    // dense-result mode (support(v)).
    bool hyper_ = true;
    SparseVec wVec_, rhoVec_, tauVec_, flipVec_;
    std::vector<int> iota_;
    long hyperSolves_ = 0;
    long denseSolves_ = 0;
    long solveNnzSum_ = 0;

    double obj_ = 0.0;
    std::vector<double> primalX_, dualY_, redCost_;
    long totalIters_ = 0;
    long numFactor_ = 0;
    long iterLimit_ = 200000;
    bool basisValid_ = false;

    // -- internals -----------------------------------------------------------
    void ensureCsc();
    double nonbasicValue(int j) const;
    void computeBasicSolution();
    bool refactorize();  ///< rebuild the factor from basic_; false if singular
    /// Recompute the fill/update/residual refactorization triggers from the
    /// fresh factor's fill.
    void resetFactorPolicy();
    bool needRefactor() const {
        return factorStale_ || updatesSince_ >= updateLimit_ ||
               factorFill() > fillLimit_;
    }
    /// Sparse basis solves with telemetry: the reach kernels when the
    /// factor offers them, dense + support rebuild otherwise. `cls` selects
    /// the LU factor's per-RHS-class density controller.
    void factFtranSparse(SparseVec& x, LuRhs cls = LuRhs::Column);
    void factBtranSparse(SparseVec& y, LuRhs cls = LuRhs::Row);
    /// Size the sparse work vectors to the current row count.
    void ensureSparseWork();
    void countSolve(bool sparse, const SparseVec& v) {
        ++(sparse ? hyperSolves_ : denseSolves_);
        solveNnzSum_ += static_cast<long>(v.nnz());
    }
    /// Index list a consumer loop should walk for v: its support when the
    /// solve stayed sparse, 0..m-1 (iota_) after a dense-result solve. Both
    /// ascend, so tie-break-sensitive loops see the same visit order.
    const std::vector<int>& support(const SparseVec& v) const {
        return v.dense ? iota_ : v.idx;
    }
    /// Hot-loop variant of support(): runs f(i) over the visit order above,
    /// but gives the dense case a plain counted loop so the compiler can
    /// unroll/vectorize it instead of chasing iota_ through a gather.
    template <class F>
    static void forSupport(const SparseVec& v, F&& f) {
        if (v.dense) {
            const int m = v.dim();
            for (int i = 0; i < m; ++i) f(i);
        } else {
            for (int i : v.idx) f(i);
        }
    }
    /// Absorb a simplex pivot into the factor. On LU update failure marks
    /// the factor stale — the pivot loop refactorizes before the next solve.
    void factUpdate(int leaveRow);
    /// Max residual of A x over all rows for the current (incrementally
    /// updated) solution; large values mean the factor has drifted.
    double solutionResidual() const;
    void pivot(int enter, int leaveRow, const SparseVec& w,
               double t, VStat enterFrom);
    void priceDuals(const std::vector<double>& cb, std::vector<double>& y) const;
    double columnDot(int j, const std::vector<double>& y) const;
    /// w = B^{-1} a_j for an entering column; this also caches the
    /// Forrest–Tomlin spike consumed by the subsequent factUpdate().
    void ftranColumn(int j, SparseVec& w);
    /// Partial pricing: pick an entering variable (devex-scored candidate
    /// window; full lowest-index scan in Bland mode). Returns -1 if a full
    /// sweep proves no eligible candidate exists.
    int pricePrimal(bool phase1, const std::vector<double>& y,
                    const std::vector<double>& perturb, bool bland,
                    int& sigma);
    void resetDevex();

    SolveStatus primalSimplex(bool phase1Allowed);
    SolveStatus dualSimplex();
    double infeasibilitySum() const;
    void extractSolution();
    void setupSlackBasis();
};

}  // namespace lp
