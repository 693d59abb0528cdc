// SCIP-SDP-style plugins for the CIP framework.
//
// The two solution approaches of the paper (section 3.2):
//   * LP-based cutting planes — SdpEigenCutHandler separates the
//     Sherali-Fraticelli eigenvector cuts v'(C - sum A_i y_i)v >= 0 for an
//     eigenvector v of the most negative eigenvalue;
//   * nonlinear branch-and-bound — SdpRelaxator solves the continuous SDP
//     relaxation at every node through the interior-point solver, falling
//     back to the penalty formulation when Slater fails.
// MisdpRoundingHeuristic is the randomized rounding heuristic; LP-mode dual
// fixing comes for free from the CIP framework's reduced-cost fixing.
#pragma once

#include "cip/plugins.hpp"
#include "cip/solver.hpp"
#include "misdp/problem.hpp"

namespace misdp {

class SdpEigenCutHandler : public cip::ConstraintHandler {
public:
    /// `separationEnabled` false turns this into a pure feasibility checker
    /// (used in SDP-relaxator mode, where the relaxation enforces PSD-ness).
    SdpEigenCutHandler(const MisdpProblem& prob, bool separationEnabled);

    bool check(cip::Solver& solver, const std::vector<double>& x) override;
    int separate(cip::Solver& solver, const std::vector<double>& x) override;
    int enforce(cip::Solver& solver, const std::vector<double>& x,
                cip::BranchDecision& decision) override;

private:
    const MisdpProblem& prob_;
    bool separationEnabled_;
};

/// The continuous SDP relaxation of `prob` at its global bounds: the SDP
/// blocks, then each linear row as one or two 1x1 blocks (rhs - a'y >= 0,
/// a'y - lhs >= 0) in row order.
sdp::SdpProblem relaxationProblem(const MisdpProblem& prob);

class SdpRelaxator : public cip::Relaxator {
public:
    explicit SdpRelaxator(const MisdpProblem& prob);
    cip::RelaxResult solveRelaxation(cip::Solver& solver) override;

private:
    sdp::SdpProblem sp_;  ///< built once; each call sets only lb and ub
    int dims_ = 0;        ///< total block dimension, for the work charge
};

class MisdpRoundingHeuristic : public cip::Heuristic {
public:
    explicit MisdpRoundingHeuristic(const MisdpProblem& prob);
    std::optional<cip::Solution> run(cip::Solver& solver,
                                     const std::vector<double>& x) override;

private:
    const MisdpProblem& prob_;
};

/// Install the SCIP-SDP-style plugin set; the parameter
/// "misdp/solvemode" ("lp" | "sdp") selects the approach.
void installMisdpPlugins(cip::Solver& solver, const MisdpProblem& prob);

}  // namespace misdp
