// Primal-dual interior-point method (HKM direction) for dual-form SDPs,
// with the penalty formulation SCIP-SDP applies when the Slater condition
// fails (paper section 3.2): an auxiliary radius variable r >= 0 augments
// every block to C - A*(y) + r I >= 0 and is driven to zero by a large
// penalty; r* > 0 at optimality certifies (near-)infeasibility.
//
// Internal form. Fixed variables are substituted into C, and every block
// keeps only its nonzero A_j, in ascending internal-variable order with
// the penalty radius last. A block with dim > 1 keeps dense C, X, Z and
// Z^{-1}, and each A_j as its nonzeros in row-major order plus its
// ascending nonzero-column list. A 1x1 block (linear row, variable bound,
// penalty sign) keeps c, x, z, z^{-1}, dx and dz as plain doubles. Z, the
// primal residual, the Schur right-hand side and <A_i, X A_j Z^{-1}> are
// summed over nonzeros only, and each Schur entry is computed once for
// j >= i and mirrored.
//
// Dense-block kernels. They allocate nothing per iteration: every buffer
// lives in its block or in the solve's workspace. Z is factored by
// linalg::Cholesky::factorInPlace into the block's L, and Z^{-1} is built
// from L by Cholesky::inverseInto straight into the block's Zinv. Every
// maxPsdStep trial forms only the lower triangle and is factored in place
// in the same L. X dZ Z^{-1} runs through linalg::multiplyInto into block
// buffers, and dX and the X step are formed in place. X A_j Z^{-1} and
// mu Z^{-1} - X are formed only at the block's used positions (the union
// of its terms' positions), the only entries the Schur sums read; this is
// SDPA's sparse Schur evaluation (Fujisawa, Kojima and Nakata, Math.
// Prog. 1997).
//
// Bit-identity contract. The iterates equal those of the dense
// computation, term for term: blocks run in their original order, each
// sum adds its terms in the dense loop's order and only drops products
// with an exact-zero factor, a scalar z^{-1} is (1/l)/l with l = sqrt(z)
// as Cholesky computes it, and the scalar factor and step tests keep
// their "<=" forms (z <= 1e-300, d*alpha + m <= 1e-14), so a NaN takes
// the same branch. The dense-block kernels keep this too: the in-place
// Cholesky is the kernel Cholesky::factor wraps, column j of Z^{-1} is
// what Cholesky::solve gives for e_j (its forward solve skips only the
// exact zeros above row j), independent sums may run interleaved but each
// keeps its own term order, and X is read as its own transpose only
// because it is exactly symmetric. The only possible difference is the
// sign of an exact zero. Sdp.MatchesParentOnMisdpRelaxations pins the
// results.
#pragma once

#include "sdp/problem.hpp"

namespace sdp {

enum class SdpStatus {
    Optimal,     ///< converged, penalty ~ 0
    Infeasible,  ///< penalty stayed positive: no feasible y exists
    Failed,      ///< iteration limit / numerical breakdown
};

const char* toString(SdpStatus s);

struct SdpResult {
    SdpStatus status = SdpStatus::Failed;
    std::vector<double> y;        ///< solution (sup b'y)
    double objective = 0.0;       ///< b'y at the returned point
    /// Valid upper bound on sup b'y from the primal side (weak duality);
    /// this is what the MISDP branch-and-bound prunes with.
    double upperBound = 0.0;
    double penalty = 0.0;         ///< final penalty value r*
    int iterations = 0;
};

struct IpmOptions {
    int maxIters = 150;
    double gapTol = 1e-8;         ///< relative complementarity gap
    double feasTol = 1e-7;        ///< primal residual tolerance
    double penaltyGamma = 1e5;    ///< penalty weight for the radius variable
    double penaltyTol = 1e-6;     ///< r* above this => infeasible
};

/// Solve max b'y s.t. all blocks PSD, bounds on y.
/// Variables with lb == ub are eliminated before the IPM runs, so
/// branching-fixed variables do not break strict interiority.
SdpResult solveSdp(const SdpProblem& prob, const IpmOptions& opts = {});

}  // namespace sdp
