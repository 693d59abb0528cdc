// Dense-basis reference simplex (the original engine, kept verbatim).
//
// This is the original bounded-variable revised simplex with an explicit
// dense B^{-1}, O(m^2)-per-iteration updates and full Dantzig pricing. It is
// retained for two purposes only:
//   * equivalence testing: the sparse engine in simplex.hpp must reproduce
//     its optimal objective values within tolerance on randomized models;
//   * benchmarking: BM_SimplexWarm* in bench/micro_kernels.cpp measures the
//     sparse engine's reoptimization speedup against this baseline.
// Production code (cip::Solver) must use lp::SimplexSolver instead.
#pragma once

#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"  // SolveStatus

namespace lp {

class DenseSimplexSolver {
public:
    DenseSimplexSolver() = default;

    /// Load a model (copies rows/cols into internal column-wise form).
    void load(const LpModel& model);

    /// Solve from scratch (fresh slack basis, primal phase I/II).
    SolveStatus solve();

    /// Append rows (e.g. separated cuts) and reoptimize with dual simplex.
    SolveStatus addRowsAndResolve(const std::vector<Row>& rows);

    /// Change bounds of a structural column and reoptimize dually.
    void changeBounds(int col, double lb, double ub);

    /// Change the side bounds (lhs/rhs) of an existing row.
    void changeRowBounds(int row, double lhs, double rhs) {
        changeBounds(n_ + row, lhs, rhs);
    }

    /// Reoptimize after bound changes (dual simplex with primal fallback).
    SolveStatus resolve();

    // -- solution access (valid after Optimal) ------------------------------
    double objective() const { return obj_; }
    const std::vector<double>& primal() const { return primalX_; }
    const std::vector<double>& duals() const { return dualY_; }
    const std::vector<double>& reducedCosts() const { return redCost_; }

    long iterations() const { return totalIters_; }
    int numRows() const { return m_; }
    int numCols() const { return n_; }

    void setIterLimit(long lim) { iterLimit_ = lim; }

private:
    enum VStat : unsigned char { AtLower, AtUpper, Basic, FreeZero };

    // Column-wise sparse matrix over [structural | slack] variables.
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
    std::vector<std::vector<double>> binv_;  ///< m_ x m_ explicit B^{-1}
    std::vector<double> xb_;        ///< basic variable values

    double obj_ = 0.0;
    std::vector<double> primalX_, dualY_, redCost_;
    long totalIters_ = 0;
    long iterLimit_ = 200000;
    bool basisValid_ = false;

    double nonbasicValue(int j) const;
    void computeBasicSolution();
    bool refactorize();
    void pivot(int enter, int leaveRow, const std::vector<double>& w,
               double t, VStat enterFrom);
    void priceDuals(const std::vector<double>& cb, std::vector<double>& y) const;
    double columnDot(int j, const std::vector<double>& y) const;
    void ftran(int j, std::vector<double>& w) const;

    SolveStatus primalSimplex(bool phase1Allowed);
    SolveStatus dualSimplex();
    double infeasibilitySum() const;
    void extractSolution();
    void setupSlackBasis();
};

}  // namespace lp
