// Constraint integer program model container (Definition 1 of the paper):
// minimize c'x over linear rows, variable bounds, integrality marks, plus
// arbitrary nonlinear constraints contributed by ConstraintHandler plugins.
#pragma once

#include <string>
#include <vector>

#include "lp/model.hpp"

namespace cip {

using lp::kInf;
using lp::Row;

/// The covering row  sum_{v in vars} x_v >= rhs, coefficients in `vars`
/// order.
inline Row coveringRow(const std::vector<int>& vars, double rhs = 1.0) {
    std::vector<std::pair<int, double>> coefs;
    coefs.reserve(vars.size());
    for (int v : vars) coefs.emplace_back(v, 1.0);
    return Row(std::move(coefs), rhs, kInf);
}

struct Var {
    double obj = 0.0;
    double lb = 0.0;
    double ub = kInf;
    bool isInt = false;
    std::string name;
};

/// The linear/integrality core of a CIP. Nonlinear parts (Steiner cut
/// constraints, SDP blocks) live in ConstraintHandler plugins that reference
/// these variables.
class Model {
public:
    int addVar(double obj, double lb, double ub, bool isInt,
               std::string name = {}) {
        vars_.push_back({obj, lb, ub, isInt, std::move(name)});
        return static_cast<int>(vars_.size()) - 1;
    }

    int addLinear(Row row) {
        rows_.push_back(std::move(row));
        return static_cast<int>(rows_.size()) - 1;
    }

    int numVars() const { return static_cast<int>(vars_.size()); }
    int numRows() const { return static_cast<int>(rows_.size()); }
    const Var& var(int j) const { return vars_[j]; }
    Var& var(int j) { return vars_[j]; }
    const Row& row(int i) const { return rows_[i]; }
    Row& row(int i) { return rows_[i]; }
    const std::vector<Var>& vars() const { return vars_; }
    const std::vector<Row>& rows() const { return rows_; }

    /// Constant added to the objective (from presolve fixings etc.).
    double objOffset = 0.0;

private:
    std::vector<Var> vars_;
    std::vector<Row> rows_;
};

/// A primal solution with its (minimization) objective value.
struct Solution {
    std::vector<double> x;
    double obj = kInf;
    bool valid() const { return !x.empty(); }
};

}  // namespace cip
